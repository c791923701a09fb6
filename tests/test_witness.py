import dataclasses
import json

import pytest

from threedom.manifold import Manifold, S2xS1, SeifertData, describe
from threedom.witness import (
    FiberSumRecord,
    FiniteCoverWitness,
    MonodromyData,
    SliceCheck,
    arc_gluing_oracle,
    bundle_branched_cover_schema,
    pillowcase_schema,
    product_branched_cover_schema,
    schema_from_dict,
    schema_to_dict,
    verify_finite_cover,
    verify_schema,
)


# ---------------------------------------------------------------------------
# Pillowcase
# ---------------------------------------------------------------------------

def test_pillowcase_riemann_hurwitz():
    s = pillowcase_schema()
    # chi identity: 0 = 2*2 - 4*(2-1)
    assert s.slice_check.chi_source == 0
    assert s.degree * s.slice_check.chi_target \
        - sum(d - 1 for d in s.slice_check.local_degrees) == 0
    assert verify_schema(s).passed


def test_pillowcase_with_three_branch_points_fails():
    s = pillowcase_schema()
    bad = dataclasses.replace(
        s, branch_components=3, local_degrees=(2, 2, 2),
        slice_check=SliceCheck(0, 2, 2, (2, 2, 2)))
    report = verify_schema(bad)
    assert not report.passed
    assert any(c.name == "riemann_hurwitz" for c in report.failures())


# ---------------------------------------------------------------------------
# Product schemas
# ---------------------------------------------------------------------------

def test_product_schema_small_cases():
    s1 = product_branched_cover_schema(1)
    assert s1.degree == 2
    assert s1.branch_components == 4
    assert s1.source_genus == 1

    s2 = product_branched_cover_schema(2)
    assert s2.source_genus == 2
    assert s2.branch_components == 6
    assert s2.target == Manifold((S2xS1(), S2xS1()))


def test_product_schema_unramified_stage():
    s5 = product_branched_cover_schema(5)
    assert s5.unramified_stage.degree == 4
    assert s5.unramified_stage.chi_cover == 2 - 2 * 5 == 4 * (-2)
    assert s5.source_genus == 5
    assert s5.branch_components is None


def test_product_schemas_verify():
    for n in range(9):
        report = verify_schema(product_branched_cover_schema(n))
        assert report.passed, report.failures()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 20_000, 400_000])
def test_schema_targets_render_every_summand(n):
    expected = " # ".join(["S2xS1"] * n) or "S3"
    for build in (product_branched_cover_schema, bundle_branched_cover_schema):
        target = build(n).target
        assert describe(target) == expected
        assert len(target.pieces) == n
        assert target == Manifold((S2xS1(),) * n)


def test_schema_target_is_symbolic_in_n():
    # #_n(S2xS1) is one piece with multiplicity n, whatever the size of n.
    n = 10 ** 15
    s = product_branched_cover_schema(n)
    assert s.target.counts == ((S2xS1(), n),)
    assert verify_schema(s).passed


# ---------------------------------------------------------------------------
# Bundle schemas
# ---------------------------------------------------------------------------

def test_bundle_schema_monodromy():
    s = bundle_branched_cover_schema(1)
    assert s.monodromy.matrix == ((1, 1), (0, 1))
    assert s.source_euler == 1
    assert verify_schema(s).passed


def test_bundle_schema_euler_numbers():
    assert bundle_branched_cover_schema(0).source_euler == 2
    for n in range(1, 9):
        assert bundle_branched_cover_schema(n).source_euler == n


def test_bundle_schemas_verify():
    for n in range(9):
        report = verify_schema(bundle_branched_cover_schema(n))
        assert report.passed, report.failures()


def test_hopf_pullback_rule():
    s = bundle_branched_cover_schema(0)
    assert s.pullback.total_degree == s.pullback.base_degree == 2
    assert s.pullback.euler_pulled == 2 * s.pullback.euler_base


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

def test_fiber_sum_fault_detected():
    s = bundle_branched_cover_schema(2)
    bad = dataclasses.replace(s, fiber_sum=FiberSumRecord(parts=(1, 1), total=3))
    report = verify_schema(bad)
    assert any(c.name == "fiber_sum_additivity" for c in report.failures())


def test_noncommuting_monodromy_detected():
    s = bundle_branched_cover_schema(1)
    bad = dataclasses.replace(
        s, monodromy=MonodromyData(matrix=((1, 1), (0, 1)),
                                   involution=((-1, 0), (0, 1))))
    report = verify_schema(bad)
    names = {c.name for c in report.failures()}
    assert "involution_is_minus_identity" in names
    assert "monodromy_commutes" in names


def test_nonsurjective_pi1_data_detected():
    s = product_branched_cover_schema(2)
    bad = dataclasses.replace(s, pi1_data=("aa", "b"))
    report = verify_schema(bad)
    assert any(c.name == "pi1_surjective" for c in report.failures())


def test_perturbed_branch_count_detected():
    s = product_branched_cover_schema(2)
    bad = dataclasses.replace(s, branch_components=5)
    report = verify_schema(bad)
    assert any(c.name == "local_degrees" for c in report.failures())


def test_chi_multiplicativity_fault_detected():
    s = product_branched_cover_schema(4)
    bad = dataclasses.replace(
        s, unramified_stage=dataclasses.replace(s.unramified_stage, degree=2))
    report = verify_schema(bad)
    assert not report.passed


# ---------------------------------------------------------------------------
# Arc-gluing oracle
# ---------------------------------------------------------------------------

def test_arc_gluing_oracle():
    assert arc_gluing_oracle(2, 2) == 6
    assert arc_gluing_oracle(0, 2) == 8
    with pytest.raises(ValueError):
        arc_gluing_oracle(4, 2)
    with pytest.raises(ValueError):
        arc_gluing_oracle(2, 3)


# ---------------------------------------------------------------------------
# Finite-cover witnesses and serialization
# ---------------------------------------------------------------------------

def test_finite_cover_witness_invariants():
    FiniteCoverWitness("product", 2, 0, 1, "explicit")
    with pytest.raises(ValueError):
        FiniteCoverWitness("product", 2, 1, 1, "explicit")
    with pytest.raises(ValueError):
        FiniteCoverWitness("bundle", 2, 0, 1, "explicit")
    with pytest.raises(ValueError):
        FiniteCoverWitness("product", 2, 0, 0, "explicit")


def test_finite_cover_verification():
    # SFS(g=1; b=-1; (2,1)): chi_orb = -1/2, e = 1/2, lcm = 2, and
    # 2 * chi_orb is odd, so the least cover has degree 4 over Sigma_2.
    s = SeifertData(1, -1, ((2, 1),))
    assert verify_finite_cover(
        s, FiniteCoverWitness("bundle", 2, 2, 4, "existence-backed")).passed
    faults = {
        "lcm_divides_degree": FiniteCoverWitness("bundle", 2, 2, 3, "existence-backed"),
        "riemann_hurwitz": FiniteCoverWitness("bundle", 3, 2, 4, "existence-backed"),
        "euler_scaling": FiniteCoverWitness("bundle", 2, 3, 4, "existence-backed"),
    }
    for check, bad in faults.items():
        names = {c.name for c in verify_finite_cover(s, bad).failures()}
        assert check in names, (check, names)
    wrong_kind = FiniteCoverWitness("product", 2, 0, 4, "existence-backed")
    names = {c.name for c in verify_finite_cover(s, wrong_kind).failures()}
    assert names == {"euler_scaling", "kind_matches_euler"}


@pytest.mark.parametrize("schema", [
    pillowcase_schema(),
    product_branched_cover_schema(0),
    product_branched_cover_schema(2),
    product_branched_cover_schema(6),
    bundle_branched_cover_schema(0),
    bundle_branched_cover_schema(1),
    bundle_branched_cover_schema(5),
])
def test_schema_serialization_roundtrip(schema):
    blob = json.dumps(schema_to_dict(schema), sort_keys=True)
    restored = schema_from_dict(json.loads(blob))
    assert restored == schema
    assert describe(restored.target) == describe(schema.target)
