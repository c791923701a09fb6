import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

from threedom.engine import dominated_by_product
from threedom.manifold import (
    Manifold,
    S2xS1,
    SeifertData,
    Spherical,
    describe,
    parse_manifold,
)
from threedom.witness import (
    CheckResult,
    FiberSumRecord,
    FiniteCoverWitness,
    InessentialWitness,
    MonodromyData,
    PullbackRecord,
    SliceCheck,
    UnramifiedStage,
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
    assert s2.target == Manifold(((S2xS1(), 2),))


def test_product_schema_unramified_stage():
    s5 = product_branched_cover_schema(5)
    assert s5.unramified_stage.degree == 4
    assert s5.unramified_stage.chi_cover == 2 - 2 * 5 == 4 * (-2)
    assert s5.source_genus == 5
    assert s5.branch_components is None


STRUCTURAL_CHECKS = ["target_is_sum_of_s2xs1", "degree_two", "source_kind",
                     "euler_matches_kind", "construction_present"]


def test_product_schemas_verify():
    for n in range(60):
        report = verify_schema(product_branched_cover_schema(n))
        assert report.passed, report.failures()
        assert [c.name for c in report.checks[:5]] == STRUCTURAL_CHECKS


@pytest.mark.parametrize("n", [0, 1, 2, 3, 20_000, 400_000])
def test_schema_targets_render_every_summand(n):
    expected = " # ".join(["S2xS1"] * n) or "S3"
    for build in (product_branched_cover_schema, bundle_branched_cover_schema):
        target = build(n).target
        assert describe(target) == expected
        assert len(target.pieces) == n
        assert target == Manifold(((S2xS1(), 1),) * n)


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
    for n in range(60):
        report = verify_schema(bundle_branched_cover_schema(n))
        assert report.passed, report.failures()
        assert [c.name for c in report.checks[:5]] == STRUCTURAL_CHECKS


@pytest.mark.parametrize("build", [product_branched_cover_schema,
                                   bundle_branched_cover_schema])
def test_schema_builders_reject_negative_n(build):
    with pytest.raises(ValueError, match="must be >= 0"):
        build(-1)


def test_hopf_pullback_rule():
    s = bundle_branched_cover_schema(0)
    assert s.pullback.total_degree == s.pullback.base_degree == 2
    assert s.pullback.euler_pulled == 2 * s.pullback.euler_base


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

def test_noncommuting_monodromy_detected():
    # An involution that does not commute with the monodromy is not -I, and
    # that one check is what it fails: every matrix commutes with -I.
    s = bundle_branched_cover_schema(1)
    bad = dataclasses.replace(
        s, monodromy=MonodromyData(matrix=((1, 1), (0, 1)),
                                   involution=((-1, 0), (0, 1))))
    report = verify_schema(bad)
    assert [c.name for c in report.failures()] == [
        "involution_is_minus_identity"]


def test_chi_multiplicativity_fault_detected():
    s = product_branched_cover_schema(4)
    bad = dataclasses.replace(
        s, unramified_stage=dataclasses.replace(s.unramified_stage, degree=2))
    report = verify_schema(bad)
    assert not report.passed


def _all_sections_null(s):
    return dataclasses.replace(
        s, branch_components=None, local_degrees=(), pi1_data=None,
        slice_check=None, monodromy=None, fiber_sum=None,
        unramified_stage=None, pullback=None)


@pytest.mark.parametrize("forge, check", [
    (lambda s: dataclasses.replace(s, target=parse_manifold("Hyperbolic")),
     "target_is_sum_of_s2xs1"),
    (lambda s: dataclasses.replace(s, pi1_rank=s.pi1_rank + 1),
     "target_is_sum_of_s2xs1"),
    # The right number of S2xS1 summands, and one piece more.
    (lambda s: dataclasses.replace(s, target=Manifold(
        (*s.target.counts, (Spherical(2), 1)))), "target_is_sum_of_s2xs1"),
    (lambda s: dataclasses.replace(s, degree=3), "degree_two"),
    (lambda s: dataclasses.replace(s, source_kind="bogus", degree=7,
                                   target=parse_manifold("Sol")),
     "source_kind"),
    (lambda s: dataclasses.replace(s, source_euler=int(s.source_euler == 0)),
     "euler_matches_kind"),
    (_all_sections_null, "construction_present"),
])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_forged_schemas_fail(forge, check, n):
    for build in (product_branched_cover_schema, bundle_branched_cover_schema):
        report = verify_schema(forge(build(n)))
        assert check in {c.name for c in report.failures()}, report


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_the_verifier_builds_no_target(monkeypatch, n):
    # The verifier reads the target's counts; it does not build #_n(S2xS1)
    # again to compare, so it shares no code with the builders there.
    schemas = [build(n) for build in (product_branched_cover_schema,
                                      bundle_branched_cover_schema)]

    def no_build(self):
        raise AssertionError("the verifier built a manifold")
    monkeypatch.setattr(Manifold, "__post_init__", no_build)
    for s in schemas:
        assert verify_schema(s).passed, s


def _source_genus_plus_three(s):
    return dataclasses.replace(s, source_genus=s.source_genus + 3)


@pytest.mark.parametrize("build, n, forge, check", [
    *[(product_branched_cover_schema, n, _source_genus_plus_three,
       "slice_genus") for n in (0, 1, 2)],
    *[(bundle_branched_cover_schema, n, _source_genus_plus_three,
       "slice_genus") for n in (0, 1)],
    *[(bundle_branched_cover_schema, n, _source_genus_plus_three,
       "fiber_sum_genus") for n in (2, 3, 5)],
    (bundle_branched_cover_schema, 1,
     lambda s: dataclasses.replace(s, source_euler=4), "monodromy_euler"),
])
def test_forged_source_fails_its_construction(build, n, forge, check):
    report = verify_schema(forge(build(n)))
    assert check in {c.name for c in report.failures()}, report


# ---------------------------------------------------------------------------
# One forgery per check
# ---------------------------------------------------------------------------

SCHEMA, COVER, INESSENTIAL = (
    "verify_schema", "FiniteCoverWitness.checks", "InessentialWitness.checks")
# Free rank 2, covered with degree 6; the oracle runs at max_order 10 000.
TWO_THREE = "Spherical(2) # Spherical(3)"
TORUS_ORBIFOLD = "SFS(g=0; b=-2; (2,1), (2,1), (2,1), (2,1))"  # chi_orb = e = 0
# chi_orb = -1/2, e = 1/2: covered with degree 4 by a bundle over Sigma_2.
ONE_FIBER = "SFS(g=1; b=-1; (2,1))"


def _product(n, **changes):
    return dataclasses.replace(product_branched_cover_schema(n), **changes)


def _bundle(n, **changes):
    return dataclasses.replace(bundle_branched_cover_schema(n), **changes)


def _cover(kind, genus, euler, degree):
    return FiniteCoverWitness(kind, genus, euler, degree, "existence-backed")


# Genuine certificates that between them hold every schema section, a finite
# cover and an inessential witness whose rank oracle runs; the unramified
# stage of degree 1, the 26 generators and the cover of degree 1 sit on the
# bounds of their checks.
GENUINE = [
    *((SCHEMA, build(n)) for build in (product_branched_cover_schema,
                                       bundle_branched_cover_schema)
      for n in range(4)),
    (SCHEMA, pillowcase_schema()),
    (SCHEMA, _product(2, unramified_stage=UnramifiedStage(1, -2, -2))),
    (SCHEMA, _product(26, pi1_data=tuple("abcdefghijklmnopqrstuvwxyz"))),
    (COVER, (_cover("product", 1, 0, 2), TORUS_ORBIFOLD, 10_000)),
    (COVER, (_cover("bundle", 2, 2, 4), ONE_FIBER, 10_000)),
    (INESSENTIAL, (InessentialWitness(2, 6, product_branched_cover_schema(2)),
                   TWO_THREE, 10_000)),
    (INESSENTIAL, (InessentialWitness(2, 1, product_branched_cover_schema(2)),
                   "S2xS1 # S2xS1", 10_000)),
]

# Each (verifier, check) pair the verifiers emit, in the order they emit
# them, with forgeries of genuine certificates that fail that check and no
# other: one per clause where a check has several.  A schema is checked by
# verify_schema; a witness is checked with (manifold text, max_order).
FORGERIES = {
    (SCHEMA, "target_is_sum_of_s2xs1"): [
        _product(2, target=Manifold(((S2xS1(), 2), (Spherical(2), 1)))),
        # A rank below the source genus: a rank above it fails
        # source_genus_covers_rank too.
        _product(3, pi1_rank=2)],
    (SCHEMA, "degree_two"): [_product(1, degree=3)],
    (SCHEMA, "source_kind"): [_bundle(2, source_kind="bogus")],
    (SCHEMA, "euler_matches_kind"): [
        _product(3, source_euler=1),
        _bundle(2, source_euler=0, fiber_sum=FiberSumRecord((0, 0), 0))],
    (SCHEMA, "construction_present"): [
        _all_sections_null(product_branched_cover_schema(1))],
    (SCHEMA, "source_genus_covers_rank"): [
        # Sigma_1 x S1 onto #_2(S2xS1), with a slice of genus 1.
        _product(2, source_genus=1, slice_check=SliceCheck(0, 2, 2, (2,) * 4)),
        # The Heisenberg nilmanifold onto #_2(S2xS1), as a one-part fiber sum.
        _bundle(2, source_genus=1, source_euler=1,
                fiber_sum=FiberSumRecord((1,), 1)),
        # The Euler-number-2 bundle over S2, of finite pi_1, onto S2xS1.
        _bundle(0, target=Manifold(((S2xS1(), 1),)), pi1_rank=1,
                pi1_data=("a",))],
    (SCHEMA, "riemann_hurwitz"): [
        dataclasses.replace(pillowcase_schema(), branch_components=3,
                            local_degrees=(2, 2, 2),
                            slice_check=SliceCheck(0, 2, 2, (2, 2, 2)))],
    (SCHEMA, "slice_genus"): [
        _product(1, slice_check=SliceCheck(-2, 2, 2, (2,) * 6))],
    (SCHEMA, "local_degrees"): [
        _product(2, branch_components=5),
        _product(2, local_degrees=(2, 2, 2, 2, 2, 3))],
    (SCHEMA, "involution_is_minus_identity"): [
        _bundle(1, monodromy=MonodromyData(((1, 1), (0, 1)),
                                           ((1, 0), (0, 1))))],
    (SCHEMA, "monodromy_euler"): [
        _bundle(1, monodromy=MonodromyData(((1, 1), (1, 1)))),
        _bundle(1, monodromy=MonodromyData(((1, 2), (0, 1)))),
        _bundle(1, source_genus=2, slice_check=None)],
    (SCHEMA, "fiber_sum_additivity"): [
        _bundle(2, fiber_sum=FiberSumRecord((1, 1), 3)),
        _bundle(2, source_euler=3)],
    (SCHEMA, "fiber_sum_genus"): [_bundle(2, fiber_sum=FiberSumRecord((2,), 2))],
    (SCHEMA, "pullback_degree"): [
        _bundle(0, pullback=PullbackRecord(2, 3, 1, 2))],
    (SCHEMA, "pullback_euler"): [
        _bundle(0, pullback=PullbackRecord(2, 2, 1, 3)),
        _bundle(0, source_euler=4)],
    (SCHEMA, "unramified_chi_multiplicativity"): [
        _product(4, unramified_stage=UnramifiedStage(3, -6, -3))],
    (SCHEMA, "nielsen_schreier_rank"): [
        _product(4, unramified_stage=UnramifiedStage(0, 0, -2)),
        _product(4, unramified_stage=UnramifiedStage(3, -3, -1)),
        _product(4, unramified_stage=UnramifiedStage(6, -6, -1))],
    (SCHEMA, "pi1_surjective"): [
        _product(2, pi1_data=("aa", "b")),
        dataclasses.replace(pillowcase_schema(), pi1_data=("a",))],
    (COVER, "single_seifert_piece"): [
        (_cover("product", 1, 0, 2), f"{TORUS_ORBIFOLD} # S2xS1", 10_000)],
    (COVER, "lcm_divides_degree"): [
        (_cover("product", 1, 0, 1), TORUS_ORBIFOLD, 10_000),
        (_cover("bundle", 1, 0, 0), ONE_FIBER, 10_000)],
    (COVER, "riemann_hurwitz"): [(_cover("bundle", 3, 2, 4), ONE_FIBER, 10_000)],
    (COVER, "euler_scaling"): [(_cover("bundle", 2, 3, 4), ONE_FIBER, 10_000)],
    (COVER, "kind_matches_euler"): [
        (_cover("product", 2, 2, 4), ONE_FIBER, 10_000),
        (_cover("bogus", 2, 2, 4), ONE_FIBER, 10_000)],
    (INESSENTIAL, "schema_rank_matches"): [
        (InessentialWitness(2, 6, product_branched_cover_schema(3)),
         TWO_THREE, 10_000)],
    (INESSENTIAL, "euler_characteristic"): [
        # 3 does not divide 4, though 4 (1 - 2) + 4 // 2 + 4 // 3 = 1 - 2.
        (InessentialWitness(2, 4, product_branched_cover_schema(2)),
         TWO_THREE, 10_000),
        # Degree 0, though 0 = 1 - 1; the oracle, which would fail the
        # rank, is skipped.
        (InessentialWitness(1, 0, product_branched_cover_schema(1)),
         TWO_THREE, 5),
        # Every order divides 6, but 1 - 3 is not 6 * chi = -1.
        (InessentialWitness(3, 6, product_branched_cover_schema(3)),
         TWO_THREE, 5)],
    (INESSENTIAL, "rank_oracle"): [
        # The Euler characteristic of a degree-12 cover, not the oracle's 6.
        (InessentialWitness(3, 12, product_branched_cover_schema(3)),
         TWO_THREE, 10_000)],
}


def _checks(verifier, certificate):
    if verifier == SCHEMA:
        return verify_schema(certificate).checks
    witness, text, max_order = certificate
    return witness.checks(parse_manifold(text), max_order)


def test_the_table_names_every_check():
    # A check the verifiers emit on a genuine certificate has a row, and a
    # row names a check they emit; an inessential witness's schema checks
    # are verify_schema's.
    emitted = set()
    for verifier, certificate in GENUINE:
        checks = _checks(verifier, certificate)
        assert all(c.passed for c in checks), (certificate, checks)
        if verifier == INESSENTIAL:
            checks = checks[len(verify_schema(certificate[0].schema).checks):]
        emitted |= {(verifier, c.name) for c in checks}
    assert set(FORGERIES) == emitted


@pytest.mark.parametrize("verifier, check", FORGERIES)
def test_each_check_fails_alone(verifier, check):
    for forgery in FORGERIES[verifier, check]:
        failed = [c.name for c in _checks(verifier, forgery) if c.passed is False]
        assert failed == [check], forgery


# Details that only a reader sees: the word and letter counts with their
# plurals, an infinite index, an absent construction, and 1 - free_rank.
DETAILS = [
    (SCHEMA, _product(1), "pi1_surjective",
     "folded image of 1 word (1 letter) has index 1 in F_1"),
    (SCHEMA, _product(2, pi1_data=("ab", "b")), "pi1_surjective",
     "folded image of 2 words (3 letters) has index 1 in F_2"),
    (SCHEMA, _product(2, pi1_data=("a",)), "pi1_surjective",
     "folded image of 1 word (1 letter) has index infinite in F_2"),
    (SCHEMA, _all_sections_null(product_branched_cover_schema(1)),
     "construction_present", "sections: none"),
    (SCHEMA, product_branched_cover_schema(1), "construction_present",
     "sections: slice_check, pi1_data"),
    (INESSENTIAL, (InessentialWitness(2, 6, product_branched_cover_schema(2)),
                   TWO_THREE, 10_000), "euler_characteristic",
     "degree 6 is a positive multiple of every spherical order; "
     "1 - free_rank = -1, degree*chi = -1"),
    (SCHEMA, _bundle(2, source_genus=1, source_euler=1,
                     fiber_sum=FiberSumRecord((1,), 1)),
     "source_genus_covers_rank", "source genus 1, pi1_rank 2"),
]


@pytest.mark.parametrize("verifier, certificate, check, detail", DETAILS)
def test_check_details_are_pinned(verifier, certificate, check, detail):
    assert [c.detail for c in _checks(verifier, certificate)
            if c.name == check] == [detail]


def test_long_pi1_data_verifies_quickly():
    length = 2000
    s = dataclasses.replace(
        product_branched_cover_schema(2),
        pi1_data=("a" * length, "a" * (length + 1), "b" + "a" * length))
    start = time.perf_counter()
    report = verify_schema(s)
    assert time.perf_counter() - start < 1.0
    assert report.passed


# ---------------------------------------------------------------------------
# Finite-cover witnesses and serialization
# ---------------------------------------------------------------------------

def test_finite_cover_witness_invariants():
    # The witness accepts any values; the verifier is what rejects them.
    # SFS(g=1; b=0) is T^3 and SFS(g=1; b=-1) the Heisenberg nilmanifold:
    # chi_orb = 0, e = 0 and e = 1, no exceptional fibers.
    torus, nil = SeifertData(1, 0, ()), SeifertData(1, -1, ())
    assert verify_finite_cover(
        torus, FiniteCoverWitness("product", 1, 0, 1, "explicit")).passed
    assert verify_finite_cover(
        nil, FiniteCoverWitness("bundle", 1, 1, 1, "explicit")).passed
    faults = [
        (torus, FiniteCoverWitness("product", 1, 1, 1, "explicit"),
         "euler_scaling"),
        (torus, FiniteCoverWitness("bundle", 1, 0, 1, "explicit"),
         "kind_matches_euler"),
        (torus, FiniteCoverWitness("product", 1, 0, 0, "explicit"),
         "lcm_divides_degree"),
        (torus, FiniteCoverWitness("bogus", 1, 0, 1, "explicit"),
         "kind_matches_euler"),
        (nil, FiniteCoverWitness("bogus", 1, 1, 1, "explicit"),
         "kind_matches_euler"),
    ]
    for data, bad, check in faults:
        report = verify_finite_cover(data, bad)
        assert not report.passed
        assert [c.name for c in report.failures()] == [check], report


def test_inessential_witness_is_tied_to_its_input():
    # Spherical(2) # Spherical(3): free rank 2, cover degree 6.  Forged
    # ranks, degrees and schemas each fail one check that never enumerates,
    # whether or not the rank oracle runs.
    m = Manifold(((Spherical(2), 1), (Spherical(3), 1)))
    genuine = InessentialWitness(2, 6, product_branched_cover_schema(2))
    checks = genuine.checks(m, 10_000)
    assert all(c.passed for c in checks)
    assert [c.name for c in checks[-3:]] == [
        "schema_rank_matches", "euler_characteristic", "rank_oracle"]
    seven = product_branched_cover_schema(7)
    forgeries = [
        (dataclasses.replace(genuine, schema=seven), "schema_rank_matches"),
        (InessentialWitness(7, 10**9, seven), "euler_characteristic"),
        (dataclasses.replace(genuine, cover_degree=10**9),
         "euler_characteristic"),
    ]
    for forged, check in forgeries:
        # With the oracle skipped (6 cosets, max_order 5), each forgery
        # fails exactly its one check; with it run, a forged rank fails it.
        failed = [c.name for c in forged.checks(m, 5) if c.passed is False]
        assert failed == [check], forged
        failed = [c.name for c in forged.checks(m, 10_000) if c.passed is False]
        assert failed == [check] + ["rank_oracle"] * (forged.free_rank != 2)
    # The oracle is skipped on the input's 10 403 cosets, not on the
    # witness's claimed degree.
    m = Manifold(((Spherical(101), 1), (Spherical(103), 1)))
    forged = dataclasses.replace(dominated_by_product(m).witness,
                                 cover_degree=6)
    checks = {c.name: c for c in forged.checks(m, 10_000)}
    assert checks["euler_characteristic"].passed is False
    assert checks["rank_oracle"] == CheckResult(
        "rank_oracle", None, "degree above --max-order")


@pytest.mark.parametrize("text, detail", [
    ("S3", "0 summands"),
    ("S2xS1", "1 summand, of type S2xS1"),
    ("Spherical(3)", "1 summand, of type Spherical"),
    # The arithmetic of the torus's own cover would pass on this sum.
    ("SFS(g=1; b=0) # SFS(g=1; b=0)", "2 summands"),
])
def test_finite_cover_witness_checks_only_its_own_target(text, detail):
    torus_cover = FiniteCoverWitness("product", 1, 0, 1, "explicit")
    checks = torus_cover.checks(parse_manifold(text), 10_000)
    assert checks == (CheckResult("single_seifert_piece", False, detail),)
    checks = torus_cover.checks(parse_manifold("SFS(g=1; b=0)"), 10_000)
    assert checks[0] == CheckResult("single_seifert_piece", True,
                                    "1 summand, of type SeifertData")
    assert len(checks) == 5 and all(c.passed for c in checks)


def test_finite_cover_verification():
    # SFS(g=1; b=-1; (2,1)): chi_orb = -1/2, e = 1/2, lcm = 2, and
    # 2 * chi_orb is odd, so the least cover has degree 4 over Sigma_2.
    s = SeifertData(1, -1, ((2, 1),))
    assert verify_finite_cover(
        s, FiniteCoverWitness("bundle", 2, 2, 4, "existence-backed")).passed
    # Genus 3 and Euler number 3 fail one check each: rows of FORGERIES.
    odd_degree = FiniteCoverWitness("bundle", 2, 2, 3, "existence-backed")
    names = {c.name for c in verify_finite_cover(s, odd_degree).failures()}
    assert "lcm_divides_degree" in names, names
    wrong_kind = FiniteCoverWitness("product", 2, 0, 4, "existence-backed")
    names = {c.name for c in verify_finite_cover(s, wrong_kind).failures()}
    assert names == {"euler_scaling", "kind_matches_euler"}


@pytest.mark.parametrize("schema", [
    pillowcase_schema(),
    *(build(n) for build in (product_branched_cover_schema,
                             bundle_branched_cover_schema) for n in range(60)),
])
def test_schema_serialization_roundtrip(schema):
    blob = json.dumps(schema_to_dict(schema), sort_keys=True)
    restored = schema_from_dict(json.loads(blob))
    assert restored == schema
    assert describe(restored.target) == describe(schema.target)


@pytest.mark.parametrize("path, value", [
    ("degree", None),
    ("degree", "2"),
    ("degree", 2.0),
    ("degree", True),
    ("source_kind", 1),
    ("target", ["S2xS1"]),
    ("local_degrees", [2, "2"]),
    ("pi1_data", "a"),
    ("pi1_data", ["a", 1]),
    ("slice_check", [0, 2, 2]),
    ("slice_check.chi_source", None),
    ("slice_check.degree", KeyError),
    ("monodromy.matrix", [[1, 1]]),
    ("monodromy.involution", [[-1, 0], [0, "-1"]]),
    ("note", 3),
    ("source_genus", KeyError),
    ("monodromy.involution", KeyError),
    ("pullback", KeyError),
    ("pi1_data", KeyError),
    ("fiber_sum", {"parts": [1, True], "total": 2}),
    ("monodromy.matrix", [[1, 1], [0, 1, 2]]),
])
def test_schema_from_dict_rejects_malformed_fields(path, value):
    # Mutate one field of a genuine schema; a missing key is KeyError here.
    blob = schema_to_dict(bundle_branched_cover_schema(1))
    *parents, key = path.split(".")
    record = blob
    for name in parents:
        record = record[name]
    if value is KeyError:
        del record[key]
    else:
        record[key] = value
    with pytest.raises(ValueError, match=path.replace(".", r"\.")):
        schema_from_dict(blob)


@pytest.mark.parametrize("blob", [[1, 2], "schema", None, {"schema_version": 2}])
def test_schema_from_dict_rejects_non_schemas(blob):
    with pytest.raises(ValueError):
        schema_from_dict(blob)


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_schema_version_is_the_integer_one(version):
    # JSON true and 1.0 compare equal to 1 in Python but are not version 1.
    blob = schema_to_dict(product_branched_cover_schema(2))
    blob["schema_version"] = version
    with pytest.raises(ValueError) as rejected:
        schema_from_dict(blob)
    assert str(rejected.value) == f"unsupported schema_version {version!r}"


def test_schema_file_keys_are_pinned():
    # The file format follows the record dataclasses, so a new field would
    # change it silently; this is the version-1 key set.
    schema = dataclasses.replace(
        bundle_branched_cover_schema(1),
        fiber_sum=FiberSumRecord((1,), 1),
        unramified_stage=UnramifiedStage(1, 0, 0),
        pullback=PullbackRecord(2, 2, 1, 2))
    blob = schema_to_dict(schema)
    assert set(blob) == {
        "schema_version", "source", "source_kind", "source_genus",
        "source_euler", "target", "degree", "branch_components",
        "local_degrees", "pi1_rank", "pi1_data", "slice_check", "monodromy",
        "fiber_sum", "unramified_stage", "pullback", "note"}
    assert {key: set(blob[key]) for key in (
        "slice_check", "monodromy", "fiber_sum", "unramified_stage",
        "pullback")} == {
        "slice_check": {"chi_source", "chi_target", "degree", "local_degrees"},
        "monodromy": {"matrix", "involution"},
        "fiber_sum": {"parts", "total"},
        "unramified_stage": {"degree", "chi_cover", "chi_base"},
        "pullback": {"base_degree", "total_degree", "euler_base",
                     "euler_pulled"},
    }
    cover = FiniteCoverWitness("bundle", 1, 4, 4, "existence-backed")
    assert set(cover.payload()) == {"type", "cover", "kind", "base_genus",
                                    "euler", "degree", "construction_status"}
    inessential = InessentialWitness(2, 4, schema).payload()
    assert set(inessential) == {"type", "free_rank", "cover_degree", "schema"}
    assert inessential["schema"] == blob
    # Only note may be left out; keys that are not fields are ignored.
    del blob["note"], blob["source"]
    blob["extra"] = 1
    assert schema_from_dict(blob) == dataclasses.replace(schema, note="")



def test_schemas_over_s3_are_pinned():
    # The benchmark's generator pins the schemas for n >= 1 (see
    # perfbench/test_perfbench.py); these are the ones with target S^3.
    empty = {"monodromy": None, "fiber_sum": None, "unramified_stage": None}
    assert schema_to_dict(product_branched_cover_schema(0)) == {
        "schema_version": 1, "source": "Sigma_0 x S1",
        "source_kind": "product", "source_genus": 0, "source_euler": 0,
        "target": "S3", "degree": 2, "branch_components": 2,
        "local_degrees": [2, 2], "pi1_rank": 0, "pi1_data": [],
        "slice_check": {"chi_source": 2, "chi_target": 2, "degree": 2,
                        "local_degrees": [2, 2]},
        **empty, "pullback": None,
        "note": "degenerate case: S^2 x S^1 doubly covers S^3 branched over "
                "a 2-component unlink; pi_1(S^3) is trivial"}
    assert schema_to_dict(bundle_branched_cover_schema(0)) == {
        "schema_version": 1,
        "source": "circle bundle over Sigma_0 with Euler number 2",
        "source_kind": "bundle", "source_genus": 0, "source_euler": 2,
        "target": "S3", "degree": 2, "branch_components": 2,
        "local_degrees": [2, 2], "pi1_rank": 0, "pi1_data": [],
        "slice_check": {"chi_source": 2, "chi_target": 2, "degree": 2,
                        "local_degrees": [2, 2]},
        **empty, "pullback": {"base_degree": 2, "total_degree": 2,
                              "euler_base": 1, "euler_pulled": 2},
        "note": "Hopf fibration pulled back along a branched double cover "
                "of S^2; Euler number doubles under the degree-2 base map"}
    assert schema_to_dict(pillowcase_schema()) == {
        "schema_version": 1, "source": "Sigma_1 x S1",
        "source_kind": "product", "source_genus": 1, "source_euler": 0,
        "target": "S3", "degree": 2, "branch_components": 4,
        "local_degrees": [2, 2, 2, 2], "pi1_rank": 0, "pi1_data": [],
        "slice_check": {"chi_source": 0, "chi_target": 2, "degree": 2,
                        "local_degrees": [2, 2, 2, 2]},
        **empty, "pullback": None,
        "note": "2-dimensional base schema: quotient of T^2 by the "
                "hyperelliptic involution"}

# The order in which a schema with several missing top-level keys is told
# which one: the fields as declared.
MISSING_KEY_ORDER = (
    "source_kind", "source_genus", "source_euler", "target", "degree",
    "branch_components", "local_degrees", "pi1_rank", "pi1_data",
    "slice_check", "monodromy", "fiber_sum", "unramified_stage", "pullback")


def test_schema_from_dict_on_the_benchmark_texts():
    # Every genuine and forged schema text the schema-verify workload
    # generates for seeds 1 and 81: genuine texts read back to the same
    # dict, the two malformed forgeries are rejected naming the first
    # missing key, and every other forgery reads but fails verification.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import gen
    for seed in (1, 81):
        for block in range(9):
            for kind, text, _ in gen.schema_block(seed, block):
                blob = json.loads(text)
                if kind in ("n", "words"):
                    schema = schema_from_dict(blob)
                    assert schema_to_dict(schema) == blob
                    assert verify_schema(schema).passed
                elif kind == "top_level_list":
                    with pytest.raises(ValueError, match="JSON object"):
                        schema_from_dict(blob)
                elif kind == "missing_keys":
                    first = next(k for k in MISSING_KEY_ORDER if k not in blob)
                    with pytest.raises(ValueError,
                                       match=f"^schema field '{first}' is missing$"):
                        schema_from_dict(blob)
                else:
                    assert not verify_schema(schema_from_dict(blob)).passed, kind
