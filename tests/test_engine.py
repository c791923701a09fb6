import itertools
import random
import time
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from threedom.engine import (
    CentralExtension,
    FinitePi1Error,
    InessentialWitness,
    VirtuallyFree,
    VirtuallyProductFxZ,
    algebraic_characterization,
    cross_check,
    cross_check_sweep,
    dominated_by_any_circle_bundle,
    dominated_by_nontrivial_circle_bundle,
    dominated_by_product,
    free_product_data,
    presentable_by_products,
    seifert_cover_parameters,
    sweep_inputs,
)
from threedom.groups import FreeProductData
from threedom.manifold import (
    Geometry,
    Manifold,
    SeifertData,
    classify_geometry,
    is_rationally_essential,
    normalize_manifold,
    orbifold_euler_characteristic,
    parse_manifold,
)
from threedom.witness import FiniteCoverWitness, verify_finite_cover, verify_schema


def load(text: str) -> Manifold:
    return normalize_manifold(parse_manifold(text))


# ---------------------------------------------------------------------------
# Domination by products
# ---------------------------------------------------------------------------

def test_three_torus_is_product_dominated():
    d = dominated_by_product(load("SFS(g=1; b=0)"))
    assert d.verdict
    assert d.clause == "Thm5.1(1)"
    assert isinstance(d.witness, FiniteCoverWitness)
    assert d.witness.kind == "product"


def test_heisenberg_manifold_is_not_product_dominated():
    d = dominated_by_product(load("SFS(g=1; b=-1)"))
    assert not d.verdict
    assert d.clause == "Lem3.2"


def test_rp3_sum_rp3_is_product_dominated():
    d = dominated_by_product(load("Spherical(2) # Spherical(2)"))
    assert d.verdict
    assert isinstance(d.witness, InessentialWitness)
    assert d.witness.cover_degree == 4
    assert d.witness.free_rank == 1
    assert verify_schema(d.witness.schema).passed


def test_hyperbolic_is_not_product_dominated():
    d = dominated_by_product(load("Hyperbolic"))
    assert not d.verdict


def test_essential_sum_is_blocked():
    d = dominated_by_product(load("SFS(g=2; b=0) # Spherical(3)"))
    assert not d.verdict
    assert d.clause == "Prop3.1"


# ---------------------------------------------------------------------------
# Domination by non-trivial circle bundles
# ---------------------------------------------------------------------------

def test_heisenberg_manifold_is_bundle_dominated():
    d = dominated_by_nontrivial_circle_bundle(load("SFS(g=1; b=-1)"))
    assert d.verdict
    assert d.clause == "Thm5.2(1)"
    assert d.witness.kind == "bundle"
    assert d.witness.euler != 0


def test_surface_times_circle_is_not_bundle_dominated():
    d = dominated_by_nontrivial_circle_bundle(load("SFS(g=2; b=0)"))
    assert not d.verdict
    assert d.clause == "Prop3.3"


def test_s3_is_bundle_dominated_via_hopf():
    d = dominated_by_nontrivial_circle_bundle(load("S3"))
    assert d.verdict
    assert isinstance(d.witness, InessentialWitness)
    assert d.witness.schema.pullback is not None
    assert verify_schema(d.witness.schema).passed


# ---------------------------------------------------------------------------
# Any circle bundle (disjunction of the two queries above)
# ---------------------------------------------------------------------------

def test_any_bundle_examples():
    assert dominated_by_any_circle_bundle(load("SFS(g=2; b=3)")).verdict
    assert not dominated_by_any_circle_bundle(load("Sol")).verdict
    assert dominated_by_any_circle_bundle(load("S2xS1 # S2xS1")).verdict


def test_any_bundle_is_the_disjunction():
    for m in _sample_inputs():
        combined = dominated_by_any_circle_bundle(m).verdict
        separate = (dominated_by_product(m).verdict
                    or dominated_by_nontrivial_circle_bundle(m).verdict)
        assert combined == separate


# ---------------------------------------------------------------------------
# Presentability by products
# ---------------------------------------------------------------------------

def test_presentable_examples():
    assert presentable_by_products(load("SFS(g=1; b=-1)")).verdict
    assert presentable_by_products(load("Spherical(2) # Spherical(2)")).verdict
    assert not presentable_by_products(load("Hyperbolic")).verdict
    assert not presentable_by_products(load("S2xS1 # S2xS1")).verdict
    assert presentable_by_products(load("S2xS1")).verdict


def test_presentable_requires_infinite_group():
    with pytest.raises(FinitePi1Error):
        presentable_by_products(load("Spherical(120)"))
    with pytest.raises(FinitePi1Error):
        presentable_by_products(load("S3"))


def test_nil_and_sl2_are_presentable_but_not_product_dominated():
    for text in ["SFS(g=1; b=-1)", "SFS(g=2; b=1)",
                 "SFS(g=0; b=1; (2,1), (3,1), (7,1))"]:
        m = load(text)
        geom = classify_geometry(m.pieces[0])
        assert geom in (Geometry.Nil, Geometry.SL2Rtilde)
        assert presentable_by_products(m).verdict
        assert not dominated_by_product(m).verdict


# ---------------------------------------------------------------------------
# Algebraic characterization
# ---------------------------------------------------------------------------

def test_algebraic_characterization_examples():
    assert algebraic_characterization(load("SFS(g=2; b=0)")) \
        == VirtuallyProductFxZ(genus=2, degree=1)
    assert algebraic_characterization(load("Spherical(2) # S2xS1")) \
        == VirtuallyFree(rank=2)
    char = algebraic_characterization(load("SFS(g=1; b=-1)"))
    assert isinstance(char, CentralExtension)
    assert char.data.base_genus == 1
    assert char.data.euler_class == 1
    assert algebraic_characterization(load("Hyperbolic")) is None


def test_free_product_data_extraction():
    m = load("S2xS1 # Spherical(2) # Spherical(3)")
    assert free_product_data(m) == FreeProductData(1, (2, 3))
    with pytest.raises(ValueError):
        free_product_data(load("Hyperbolic"))


def test_cover_parameters_clear_denominators():
    m = load("SFS(g=0; b=1; (2,1), (3,1), (7,1))")
    genus, degree, euler, status = seifert_cover_parameters(m.pieces[0].data)
    assert genus >= 1
    assert status == "existence-backed"
    # the scaled Euler class is an exact integer and non-zero
    assert isinstance(euler, int) and euler != 0
    # 2 - 2g' = d * chi_orb exactly
    from threedom.manifold import orbifold_euler_characteristic
    assert 2 - 2 * genus == degree * orbifold_euler_characteristic(
        m.pieces[0].data)


def test_cover_degree_unwraps_every_fiber():
    # lcm(2,4,4) = 4; a degree-1 "cover" would leave the order-4 fibers.
    m = load("SFS(g=0; b=-3; (2,1), (4,1), (4,1))")
    assert seifert_cover_parameters(m.pieces[0].data) \
        == (1, 4, 8, "existence-backed")
    w = dominated_by_nontrivial_circle_bundle(m).witness
    assert (w.base_genus, w.euler, w.degree) == (1, 8, 4)


@settings(derandomize=True, max_examples=300)
@given(genus=st.integers(min_value=0, max_value=3),
       obstruction=st.integers(min_value=-5, max_value=5),
       fibers=st.lists(st.tuples(st.integers(min_value=2, max_value=12),
                                 st.integers(min_value=1, max_value=11))
                       .filter(lambda ab: ab[1] < ab[0] and gcd(*ab) == 1),
                       max_size=4))
def test_cover_degree_is_least_valid_multiple_of_lcm(genus, obstruction, fibers):
    s = SeifertData(genus, obstruction, tuple(fibers))
    chi = orbifold_euler_characteristic(s)
    if chi > 0:
        return
    fiber_lcm = lcm(*(alpha for alpha, _ in s.fibers))
    least = next(d for d in itertools.count(1)
                 if d % fiber_lcm == 0 and (d * chi).denominator == 1
                 and (d * chi).numerator % 2 == 0)
    genus_cover, degree, euler, _ = seifert_cover_parameters(s)
    assert degree == least
    kind = "product" if euler == 0 else "bundle"
    w = FiniteCoverWitness(kind, genus_cover, euler, degree, "existence-backed")
    assert verify_finite_cover(s, w).passed


@pytest.mark.parametrize("genus,alphas,degree", [
    # the four Euclidean signatures: cyclic torus covers of degree L
    (0, (2, 2, 2, 2), 2), (0, (3, 3, 3), 3), (0, (2, 4, 4), 4), (0, (2, 3, 6), 6),
    # hyperbolic, L * chi_orb even: d = L
    (0, (3, 3, 3, 3), 3), (0, (5, 5, 5), 5), (0, (2, 2, 3, 3), 6),
    (0, (3, 4, 4), 12), (0, (3, 3, 5), 15), (1, (3,), 3), (1, (2, 2), 2),
    # hyperbolic, L * chi_orb odd: d = 2L
    (0, (2, 2, 2, 2, 2), 4), (0, (4, 4, 4), 8), (0, (2, 2, 2, 3), 12), (1, (2,), 4),
])
def test_cover_degree_is_realized_by_a_permutation_representation(
        genus, alphas, degree):
    # A torsion-free subgroup of index d in the orbifold group
    # <a_j, b_j, x_i | x_i^alpha_i, x_1...x_r [a_1,b_1]...[a_g,b_g]> is the
    # point stabilizer of a transitive action on d points in which every x_i
    # acts freely with all cycles of length alpha_i.  Search for one at the
    # degree the engine reports.
    s = SeifertData(genus, 0, tuple((a, 1) for a in alphas))
    assert seifert_cover_parameters(s)[1] == degree
    rng = random.Random(f"{genus}{alphas}")
    for _ in range(20_000):
        gens = [_free_cycles(rng, degree, a) for a in alphas[:-1]]
        handles = [list(rng.sample(range(degree), degree)) for _ in range(2 * genus)]
        rest = list(range(degree))
        for p in gens:
            rest = [p[i] for i in rest]
        for a, b in zip(handles[::2], handles[1::2]):
            c = _commutator(a, b)
            rest = [c[i] for i in rest]
        last = [0] * degree     # the inverse of the product of the others
        for i, j in enumerate(rest):
            last[j] = i
        if (_cycle_lengths(last) == {alphas[-1]}
                and _transitive(gens + handles + [last], degree)):
            return
    pytest.fail(f"no free action of degree {degree} found")


def _free_cycles(rng, degree, alpha):
    points = rng.sample(range(degree), degree)
    perm = [0] * degree
    for start in range(0, degree, alpha):
        cycle = points[start:start + alpha]
        for k, p in enumerate(cycle):
            perm[p] = cycle[(k + 1) % alpha]
    return perm


def _commutator(a, b):
    inv_a, inv_b = [0] * len(a), [0] * len(b)
    for i in range(len(a)):
        inv_a[a[i]] = i
        inv_b[b[i]] = i
    return [inv_b[inv_a[b[a[i]]]] for i in range(len(a))]


def _cycle_lengths(perm):
    lengths, seen = set(), set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length:
            lengths.add(length)
    return lengths


def _transitive(perms, degree):
    seen, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for p in perms:
            if p[i] not in seen:
                seen.add(p[i])
                frontier.append(p[i])
    return len(seen) == degree


def test_sweep_finite_cover_witnesses_verify():
    checked = 0
    for m in sweep_inputs():
        for query in (dominated_by_product, dominated_by_nontrivial_circle_bundle):
            w = query(m).witness
            if isinstance(w, FiniteCoverWitness):
                report = verify_finite_cover(m.pieces[0].data, w)
                assert report.passed, (m, report.failures())
                checked += 1
    assert checked > 4000


def test_large_fiber_orders_answer_quickly():
    # lcm(alpha) is about 1e12: the cover degree is a formula, not a search.
    m = load("SFS(g=0; b=0; (10007,1), (10009,1), (10037,1))")
    start = time.perf_counter()
    for query in (dominated_by_product, dominated_by_nontrivial_circle_bundle,
                  dominated_by_any_circle_bundle, presentable_by_products):
        query(m)
    assert cross_check(m).consistent
    assert time.perf_counter() - start < 1.0
    w = dominated_by_nontrivial_circle_bundle(m).witness
    assert w.degree == 10007 * 10009 * 10037     # L * chi_orb is even
    assert verify_finite_cover(m.pieces[0].data, w).passed


# ---------------------------------------------------------------------------
# Cross-checking
# ---------------------------------------------------------------------------

def test_cross_check_agreement_on_samples():
    for m in _sample_inputs():
        report = cross_check(m)
        assert report.consistent, report.traces


def test_cross_check_matches_public_queries():
    for m in _sample_inputs():
        report = cross_check(m)
        assert report.product.topological == dominated_by_product(m).verdict
        assert report.bundle.topological \
            == dominated_by_nontrivial_circle_bundle(m).verdict


def test_sweep_has_no_discrepancies():
    count, discrepancies = cross_check_sweep()
    assert count > 4000
    assert discrepancies == []


def test_inessential_inputs_get_both_dominations():
    for m in sweep_inputs():
        if not is_rationally_essential(m):
            assert dominated_by_product(m).verdict
            assert dominated_by_nontrivial_circle_bundle(m).verdict


def test_essential_exclusivity():
    seen_product = seen_bundle = False
    for m in _sample_inputs():
        if not is_rationally_essential(m):
            continue
        product = dominated_by_product(m).verdict
        bundle = dominated_by_nontrivial_circle_bundle(m).verdict
        assert not (product and bundle)
        if len(m.pieces) == 1:
            geom = classify_geometry(m.pieces[0])
            assert product == (geom in (Geometry.E3, Geometry.H2xR))
            assert bundle == (geom in (Geometry.Nil, Geometry.SL2Rtilde))
        seen_product |= product
        seen_bundle |= bundle
    assert seen_product and seen_bundle


def _sample_inputs():
    texts = [
        "S3", "S2xS1", "Spherical(2)", "Spherical(120)",
        "Spherical(2) # Spherical(2)", "S2xS1 # Spherical(5) # Spherical(3)",
        "SFS(g=1; b=0)", "SFS(g=2; b=0)", "SFS(g=1; b=-1)", "SFS(g=2; b=1)",
        "SFS(g=0; b=1; (2,1), (3,1), (7,1))",
        "SFS(g=0; b=-2; (2,1), (2,1), (2,1), (2,1))",
        "Hyperbolic", "Sol", "OtherAspherical",
        "Hyperbolic # Spherical(2)", "SFS(g=1; b=0) # S2xS1",
    ]
    return [load(t) for t in texts]
