import gc
import itertools
import random
import re
import time
import weakref
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from threedom import cli, engine, groups, manifold, witness
from threedom.engine import (
    FinitePi1Error,
    InessentialWitness,
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
from threedom.groups import FreeProductData, free_cover_rank
from threedom.manifold import (
    Geometry,
    NormalizationError,
    SeifertData,
    classify_geometry,
    euler_number,
    is_rationally_essential,
    orbifold_euler_characteristic,
    parse_manifold,
)
from threedom.witness import FiniteCoverWitness, verify_finite_cover, verify_schema
from test_manifold import _raw_invariants


# ---------------------------------------------------------------------------
# Domination by products
# ---------------------------------------------------------------------------

def test_three_torus_is_product_dominated():
    d = dominated_by_product(parse_manifold("SFS(g=1; b=0)"))
    assert d.verdict
    assert d.clause == "Thm5.1(1)"
    assert isinstance(d.witness, FiniteCoverWitness)
    assert d.witness.kind == "product"


def test_heisenberg_manifold_is_not_product_dominated():
    d = dominated_by_product(parse_manifold("SFS(g=1; b=-1)"))
    assert not d.verdict
    assert d.clause == "Lem3.2"


def test_rp3_sum_rp3_is_product_dominated():
    d = dominated_by_product(parse_manifold("Spherical(2) # Spherical(2)"))
    assert d.verdict
    assert isinstance(d.witness, InessentialWitness)
    assert d.witness.cover_degree == 4
    assert d.witness.free_rank == 1
    assert verify_schema(d.witness.schema).passed


def test_hyperbolic_is_not_product_dominated():
    d = dominated_by_product(parse_manifold("Hyperbolic"))
    assert not d.verdict


def test_essential_sum_is_blocked():
    d = dominated_by_product(parse_manifold("SFS(g=2; b=0) # Spherical(3)"))
    assert not d.verdict
    assert d.clause == "Prop3.1"


# ---------------------------------------------------------------------------
# Domination by non-trivial circle bundles
# ---------------------------------------------------------------------------

def test_heisenberg_manifold_is_bundle_dominated():
    d = dominated_by_nontrivial_circle_bundle(parse_manifold("SFS(g=1; b=-1)"))
    assert d.verdict
    assert d.clause == "Thm5.2(1)"
    assert d.witness.kind == "bundle"
    assert d.witness.euler != 0


def test_surface_times_circle_is_not_bundle_dominated():
    d = dominated_by_nontrivial_circle_bundle(parse_manifold("SFS(g=2; b=0)"))
    assert not d.verdict
    assert d.clause == "Prop3.3"


def test_s3_is_bundle_dominated_via_hopf():
    d = dominated_by_nontrivial_circle_bundle(parse_manifold("S3"))
    assert d.verdict
    assert isinstance(d.witness, InessentialWitness)
    assert d.witness.schema.pullback is not None
    assert verify_schema(d.witness.schema).passed


# ---------------------------------------------------------------------------
# Any circle bundle (disjunction of the two queries above)
# ---------------------------------------------------------------------------

def test_any_bundle_examples():
    assert dominated_by_any_circle_bundle(
        parse_manifold("SFS(g=2; b=3)")).verdict
    assert not dominated_by_any_circle_bundle(parse_manifold("Sol")).verdict
    assert dominated_by_any_circle_bundle(
        parse_manifold("S2xS1 # S2xS1")).verdict


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
    assert presentable_by_products(parse_manifold("S2xS1")).verdict


def test_presentable_requires_infinite_group():
    with pytest.raises(FinitePi1Error):
        presentable_by_products(parse_manifold("Spherical(120)"))
    with pytest.raises(FinitePi1Error):
        presentable_by_products(parse_manifold("S3"))


# ---------------------------------------------------------------------------
# The algebraic route
# ---------------------------------------------------------------------------

def test_algebraic_route_examples():
    def trace(text, kind):
        traces = cross_check(parse_manifold(text)).traces
        return next(t for t in traces if t.startswith(f"{kind}/algebraic: "))

    assert trace("SFS(g=2; b=0)", "product") == (
        "product/algebraic: True [Thm5.3(1)] pi_1 is virtually "
        "(genus-2 surface group) x Z")
    assert trace("Spherical(2) # S2xS1", "bundle") == (
        "bundle/algebraic: True [Thm5.4(2)] pi_1 is virtually free of rank 2")
    assert trace("SFS(g=1; b=-1)", "bundle") == (
        "bundle/algebraic: True [Thm5.4(1)] finite-index central extension "
        "of a genus-1 surface group with Euler class 1 != 0")
    assert trace("Hyperbolic", "product") == (
        "product/algebraic: False [Thm5.3] pi_1 is neither virtually free "
        "nor virtually F x Z")


def test_free_product_data_extraction():
    m = parse_manifold("S2xS1 # Spherical(2) # Spherical(3)")
    assert free_product_data(m) == FreeProductData(1, (2, 3))
    with pytest.raises(ValueError):
        free_product_data(parse_manifold("Hyperbolic"))


def test_cover_parameters_clear_denominators():
    m = parse_manifold("SFS(g=0; b=1; (2,1), (3,1), (7,1))")
    genus, degree, euler, status = seifert_cover_parameters(m.pieces[0])
    assert genus >= 1
    assert status == "existence-backed"
    # the scaled Euler class is an exact integer and non-zero
    assert isinstance(euler, int) and euler != 0
    # 2 - 2g' = d * chi_orb exactly
    assert 2 - 2 * genus == degree * orbifold_euler_characteristic(m.pieces[0])


def test_cover_parameters_reject_a_spherical_piece():
    # chi_orb = 2 > 0: no cover by a product or circle bundle is aspherical.
    message = "^spherical Seifert piece has no aspherical cover$"
    with pytest.raises(NormalizationError, match=message):
        seifert_cover_parameters(SeifertData(0, 1))


def test_cover_degree_unwraps_every_fiber():
    # lcm(2,4,4) = 4; a degree-1 "cover" would leave the order-4 fibers.
    m = parse_manifold("SFS(g=0; b=-3; (2,1), (4,1), (4,1))")
    assert seifert_cover_parameters(m.pieces[0]) \
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


@st.composite
def _raw_seifert_data(draw):
    """Unnormalized invariants: orders up to 10**6 drawn from a small pool,
    so that they repeat, and beta of either sign, a multiple of alpha or
    coprime to it."""
    pool = draw(st.lists(st.integers(2, 10**6), min_size=1, max_size=6))
    fibers = []
    for _ in range(draw(st.integers(0, 30))):
        alpha = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            beta = alpha * draw(st.integers(-3, 3))
        else:
            beta = draw(st.integers(-10**6, 10**6)
                        .filter(lambda b: gcd(alpha, b) == 1))
        fibers.append((alpha, beta))
    return SeifertData(draw(st.integers(0, 50)),
                       draw(st.integers(-10**6, 10**6)), tuple(fibers))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_raw_seifert_data())
# The Poincare sphere data: L * chi_orb = 30 * 1/30 = 1, the least positive.
@example(SeifertData(0, -1, ((2, 1), (3, 1), (5, 1))))
def test_integer_invariants_equal_the_fraction_sums(s):
    e, chi = _raw_invariants(s.genus, s.obstruction, s.fibers)
    assert orbifold_euler_characteristic(s) == chi
    assert euler_number(s) == e
    if chi > 0:
        with pytest.raises(NormalizationError):
            seifert_cover_parameters(s)
        return
    genus, degree, euler, _ = seifert_cover_parameters(s)
    assert 2 - 2 * genus == degree * chi
    assert euler == degree * e


def test_invariants_of_100_000_fibers_are_fast():
    # With lcm(alpha) = 6 each value is one pass of integer sums, where a
    # Fraction addition per fiber takes about 0.4 s for e alone.
    s = SeifertData(0, 1, ((2, 1), (3, 1)) * 50_000)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        values = (euler_number(s), orbifold_euler_characteristic(s),
                  seifert_cover_parameters(s))
        best = min(best, time.perf_counter() - start)
    assert best < 0.1
    assert values == (Fraction(-125_003, 3), Fraction(-174_994, 3),
                      (174_995, 6, -250_006, "existence-backed"))


def test_each_invariant_builds_one_fraction(monkeypatch):
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    s = SeifertData(0, 1, ((2, 1), (3, 1), (5, 2), (7, 3), (11, 4)))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    counts = []
    for invariant in (euler_number, orbifold_euler_characteristic,
                      seifert_cover_parameters):
        for _ in range(2):      # computed, then kept on the piece
            built.clear()
            invariant(s)
            counts.append(len(built))
    monkeypatch.undo()
    assert counts == [1, 0, 1, 0, 0, 0]


def test_cover_parameters_do_not_call_the_verifier_helpers(monkeypatch):
    # The producer of a finite cover and `verify_finite_cover` must work out
    # d * chi_orb and d * e with different code.
    pieces = [s for m in sweep_inputs() for s, _ in m.counts
              if isinstance(s, SeifertData)]
    before = [seifert_cover_parameters(s) for s in pieces]
    # Values kept on a piece would run no code, and could not fail; pieces
    # built afresh keep none.
    fresh = [replace(s) for s in pieces]

    def unavailable(s):
        raise AssertionError("the cover producer called a verifier helper")

    monkeypatch.setattr(engine, "euler_number", unavailable)
    for name in ("euler_number", "orbifold_euler_characteristic"):
        monkeypatch.setattr(manifold, name, unavailable)
    after = [seifert_cover_parameters(s) for s in fresh]
    monkeypatch.undo()
    assert after == before
    for s, (genus, degree, euler, status) in zip(pieces, after):
        kind = "product" if euler == 0 else "bundle"
        w = FiniteCoverWitness(kind, genus, euler, degree, status)
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
                report = verify_finite_cover(m.pieces[0], w)
                assert report.passed, (m, report.failures())
                checked += 1
    assert checked > 4000


def test_large_fiber_orders_answer_quickly():
    # lcm(alpha) is about 1e12: the cover degree is a formula, not a search.
    m = parse_manifold("SFS(g=0; b=0; (10007,1), (10009,1), (10037,1))")
    start = time.perf_counter()
    for query in (dominated_by_product, dominated_by_nontrivial_circle_bundle,
                  dominated_by_any_circle_bundle, presentable_by_products):
        query(m)
    assert cross_check(m).consistent
    assert time.perf_counter() - start < 1.0
    w = dominated_by_nontrivial_circle_bundle(m).witness
    assert w.degree == 10007 * 10009 * 10037     # L * chi_orb is even
    assert verify_finite_cover(m.pieces[0], w).passed


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


# Every (kind/route, verdict, clause) that cross_check reports on the sweep.
SWEEP_CLAUSES = {
    ("product/topological", True, "Thm1.1(1)"),
    ("product/topological", True, "Thm1.1(2)"),
    ("product/topological", False, "Thm1.1(1)"),
    ("product/topological", False, "Prop3.1"),
    ("product/topological", False, "Lem3.2"),
    ("product/topological", False, "Sec1"),
    ("product/geometric", True, "Thm5.1(1)"),
    ("product/geometric", True, "Thm5.1(2)"),
    ("product/geometric", False, "Thm5.1"),
    ("product/algebraic", True, "Thm5.3(1)"),
    ("product/algebraic", True, "Thm5.3(2)"),
    ("product/algebraic", False, "Thm5.3"),
    ("bundle/topological", True, "Thm1.2(1)"),
    ("bundle/topological", True, "Thm1.2(2)"),
    ("bundle/topological", False, "Thm1.2(1)"),
    ("bundle/topological", False, "Prop3.1"),
    ("bundle/topological", False, "Prop3.3"),
    ("bundle/geometric", True, "Thm5.2(1)"),
    ("bundle/geometric", True, "Thm5.2(2)"),
    ("bundle/geometric", False, "Thm5.2"),
    ("bundle/algebraic", True, "Thm5.4(1)"),
    ("bundle/algebraic", True, "Thm5.4(2)"),
    ("bundle/algebraic", False, "Thm5.4"),
}


def test_sweep_has_no_discrepancies(monkeypatch):
    clauses = set()

    def recording_cross_check(m):
        report = cross_check(m)
        for trace in report.traces:
            route, verdict, clause = re.match(
                r"(\S+): (True|False) \[([^\]]*)\]", trace).groups()
            clauses.add((route, verdict == "True", clause))
        return report

    monkeypatch.setattr(engine, "cross_check", recording_cross_check)
    count, discrepancies = cross_check_sweep()
    assert count > 4000
    assert discrepancies == []
    assert clauses == SWEEP_CLAUSES


# Two wrong Euler numbers.  The routes look `euler_number` up in `engine`
# and `manifold`; this module's name keeps the right one.
def _drop_last_fiber(s):
    return euler_number(SeifertData(s.genus, s.obstruction, s.fibers[:-1]))


def _ignore_obstruction(s):
    return euler_number(SeifertData(s.genus, 0, s.fibers))


# A wrong cover for the algebraic route.  It keeps every fiber: dropping one
# can make chi_orb > 0, which the cover arithmetic refuses.
def _cover_ignoring_obstruction(s):
    return seifert_cover_parameters(SeifertData(s.genus, 0, s.fibers))


def test_a_wrong_euler_number_shows_as_a_discrepancy(monkeypatch):
    # The algebraic route reads e = 0 from the cover parameters' integer
    # sum, not from `euler_number`, so a fault in either splits the routes.
    faults = [((engine, manifold), "euler_number", _drop_last_fiber),
              ((engine, manifold), "euler_number", _ignore_obstruction),
              ((engine,), "seifert_cover_parameters",
               _cover_ignoring_obstruction)]
    for modules, name, fault in faults:
        monkeypatch.undo()
        for module in modules:
            monkeypatch.setattr(module, name, fault)
        _, discrepancies = cross_check_sweep()
        assert discrepancies, fault.__name__


def test_a_wrong_euler_number_is_seen_through_a_warm_cache(monkeypatch):
    # The routes look `euler_number` up when they call it, so a fault
    # injected after a sweep has kept values on its pieces is seen as on
    # pieces built afresh.
    def faulty_sweep(inputs):
        for module in (engine, manifold):
            monkeypatch.setattr(module, "euler_number", _drop_last_fiber)
        reports = [cross_check(m) for m in dict.fromkeys(inputs)]
        monkeypatch.undo()
        return [(r.manifold, r.traces) for r in reports if not r.consistent]

    warm = list(dict.fromkeys(sweep_inputs()))
    for m in warm:
        cross_check(m)
    assert any("euler_number" in vars(p) for m in warm for p, _ in m.counts)
    found = faulty_sweep(warm)
    assert faulty_sweep(sweep_inputs()) == found
    assert found


def _outcome(helper, arg):
    try:
        return "value", helper(arg)
    except ValueError as exc:
        return "error", type(exc), str(exc)


def test_each_memoized_helper_equals_its_original():
    inputs = list(dict.fromkeys(sweep_inputs()))
    pieces = list(dict.fromkeys(p for m in inputs for p, _ in m.counts
                                if isinstance(p, SeifertData)))
    data = [free_product_data.__wrapped__(m) for m in inputs
            if not is_rationally_essential(m)]
    arguments = {euler_number: pieces, orbifold_euler_characteristic: pieces,
                 seifert_cover_parameters: pieces, free_cover_rank: data,
                 free_product_data: inputs}
    for helper, args in arguments.items():
        fresh = [replace(arg) for arg in args]  # building args kept values
        outcomes = [_outcome(helper, arg) for arg in fresh]
        assert outcomes == [_outcome(helper.__wrapped__, arg) for arg in args]
        again = [_outcome(helper, arg) for arg in fresh]
        assert again == outcomes
        # A value is computed once and kept; an error is raised afresh.
        for arg, first, second in zip(fresh, outcomes, again):
            if first[0] == "value":
                assert second[1] is first[1] is vars(arg)[helper.__name__]
            else:
                assert helper.__name__ not in vars(arg)


def test_the_checkers_and_composites_are_not_memoized():
    # Each certificate check runs its verifier and enumerates its cosets,
    # and a composite must call the leaves it is made of.
    for fn in (groups.reidemeister_schreier_rank_oracle, classify_geometry,
               verify_schema, verify_finite_cover):
        assert not hasattr(fn, "__wrapped__"), fn.__name__
    # Every memoized function of the package, found by looking: the five
    # leaves keep their values on their arguments, and only the schema
    # codec builder and the CLI's argument parser, whose keys are types or
    # nothing, keep a process-wide cache.
    wrapped = {fn for module in (cli, engine, groups, manifold, witness)
               for fn in vars(module).values() if hasattr(fn, "__wrapped__")}
    every_cache = {fn for fn in wrapped if hasattr(fn, "cache_clear")}
    assert wrapped - every_cache == {
        euler_number, orbifold_euler_characteristic, seifert_cover_parameters,
        free_cover_rank, free_product_data}
    assert every_cache == {witness._codec, cli.build_parser}


def test_nothing_kept_for_an_input_outlives_its_answer():
    # A memoized helper keeps its value on its argument, so the value goes
    # when the piece, manifold or free product it describes goes.
    refs = []
    for text in ("SFS(g=0; b=1; (2,1),(3,1),(7,1))",
                 "Spherical(2) # Spherical(3) # S2xS1",
                 "SFS(g=2; b=0) # Spherical(3)"):
        m = parse_manifold(text)
        for query in (dominated_by_product, dominated_by_any_circle_bundle,
                      dominated_by_nontrivial_circle_bundle):
            w = query(m).witness
            assert w is None or all(c.passed for c in w.checks(m, 10_000))
        assert cross_check(m).consistent
        refs += map(weakref.ref, (m, *(p for p, _ in m.counts
                                       if isinstance(p, SeifertData))))
    del m, w
    gc.collect()
    assert [ref() for ref in refs] == [None] * 5


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
    return [parse_manifold(t) for t in texts]
