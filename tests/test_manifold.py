from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from threedom.manifold import (
    Geometry,
    Hyperbolic,
    Manifold,
    NormalizationError,
    OtherAspherical,
    ParseError,
    S2xS1,
    S3,
    SeifertData,
    SeifertFibered,
    Sol,
    Spherical,
    classify_geometry,
    describe,
    euler_number,
    is_rationally_essential,
    normalize_manifold,
    normalize_seifert,
    orbifold_euler_characteristic,
    parse_manifold,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_trivial_bundle():
    m = parse_manifold("SFS(g=1; b=0)")
    assert m == Manifold((SeifertFibered(SeifertData(1, 0)),))


def test_parse_s3_is_empty_sum():
    assert parse_manifold("S3") == S3
    assert parse_manifold("  S3  ") == Manifold(())


def test_parse_connected_sum():
    m = parse_manifold("Spherical(2) # Spherical(2)")
    assert m.pieces == (Spherical(2), Spherical(2))


def test_parse_fibers_and_whitespace():
    m = parse_manifold("SFS( g = 0 ; b = 1 ; (2,1),(3,1) , (5 , 1) )")
    assert m.pieces[0].data.fibers == ((2, 1), (3, 1), (5, 1))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_manifold("SFS(g=1; b=0")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_manifold("Spherical(1)")
    with pytest.raises(ParseError):
        parse_manifold("SFS(g=1; b=0; (1,1))")
    with pytest.raises(ParseError):
        parse_manifold("S3 # Hyperbolic")
    with pytest.raises(ParseError):
        parse_manifold("Banana")
    with pytest.raises(ParseError):
        parse_manifold("")


def test_describe_roundtrip():
    for text in ["S3", "SFS(g=1; b=-1)", "Hyperbolic # Spherical(8)",
                 "SFS(g=0; b=1; (2,1), (3,1), (7,1)) # S2xS1"]:
        m = parse_manifold(text)
        assert parse_manifold(describe(m)) == m


# ---------------------------------------------------------------------------
# Seifert arithmetic
# ---------------------------------------------------------------------------

def test_normalize_folds_quotient_into_obstruction():
    # 5 = 2*2 + 1; Euler number preserved (checked by the exact oracle below).
    raw = SeifertData(0, 1, ((2, 5),))
    out = normalize_seifert(raw)
    assert out == SeifertData(0, 3, ((2, 1),))
    assert euler_number(out) == euler_number(raw) == Fraction(-7, 2)


def test_normalize_already_normalized():
    s = SeifertData(1, 0)
    assert normalize_seifert(s) == s


def test_normalize_negative_quotient():
    raw = SeifertData(2, -1, ((3, 4),))
    out = normalize_seifert(raw)
    assert out == SeifertData(2, 0, ((3, 1),))
    assert euler_number(out) == euler_number(raw) == Fraction(-1, 3)


def test_euler_number_values():
    assert euler_number(SeifertData(1, 0)) == 0
    assert euler_number(SeifertData(1, -1)) == 1
    assert euler_number(SeifertData(0, 1, ((2, 1), (3, 1), (5, 1)))) \
        == Fraction(-61, 30)


def test_orbifold_euler_characteristic_values():
    assert orbifold_euler_characteristic(SeifertData(1, 0)) == 0
    assert orbifold_euler_characteristic(SeifertData(2, 0)) == -2
    assert orbifold_euler_characteristic(
        SeifertData(0, 1, ((2, 1), (3, 1), (7, 1)))) == Fraction(-1, 42)


def test_noncoprime_fibers_rejected():
    with pytest.raises(ValueError):
        SeifertData(0, 0, ((4, 2),))
    # beta = 0 mod alpha is an ordinary fiber, which is fine
    assert normalize_seifert(SeifertData(0, 0, ((4, 8),))) == SeifertData(0, 2)


# ---------------------------------------------------------------------------
# Geometry classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("data,geometry", [
    (SeifertData(1, 0), Geometry.E3),
    (SeifertData(1, -1), Geometry.Nil),
    (SeifertData(2, 0), Geometry.H2xR),
    (SeifertData(2, 1), Geometry.SL2Rtilde),
    (SeifertData(0, 1, ((2, 1), (3, 1), (7, 1))), Geometry.SL2Rtilde),
    (SeifertData(1, -1, ((2, 1), (2, 1))), Geometry.H2xR),
])
def test_classify_seifert(data, geometry):
    assert classify_geometry(SeifertFibered(data)) == geometry


def test_classify_markers():
    assert classify_geometry(S2xS1()) == Geometry.S2xR
    assert classify_geometry(Spherical(8)) == Geometry.S3geom
    assert classify_geometry(Hyperbolic()) == Geometry.H3
    assert classify_geometry(Sol()) == Geometry.SolGeom
    assert classify_geometry(OtherAspherical()) == Geometry.NonGeometric


def test_classify_rejects_positive_chi_orb():
    with pytest.raises(NormalizationError):
        classify_geometry(SeifertFibered(SeifertData(0, 1)))


# ---------------------------------------------------------------------------
# Manifold normalization and essentialness
# ---------------------------------------------------------------------------

def test_trivial_s2_bundle_becomes_s2xs1():
    m = normalize_manifold(Manifold((SeifertFibered(SeifertData(0, 0)),)))
    assert m == Manifold((S2xS1(),))


def test_hopf_case_rejected_as_spherical():
    with pytest.raises(NormalizationError, match="Spherical"):
        normalize_manifold(Manifold((SeifertFibered(SeifertData(0, 1)),)))


def test_positive_chi_with_fibers_rejected():
    # chi_orb = 1 > 0, e = 0: lens-space-like data, not accepted symbolically
    piece = SeifertFibered(SeifertData(0, -1, ((2, 1), (2, 1))))
    with pytest.raises(NormalizationError):
        normalize_manifold(Manifold((piece,)))


def test_poincare_sphere_data_rejected():
    # (2,3,5) with b=1 has chi_orb = 1/30 > 0 and e != 0: a spherical space
    # form, so the symbolic model demands Spherical(120) instead.
    m = parse_manifold("SFS(g=0; b=1; (2,1), (3,1), (5,1))")
    with pytest.raises(NormalizationError, match="spherical space form"):
        normalize_manifold(m)


def test_already_canonical_untouched():
    m = Manifold((Hyperbolic(), Spherical(8)))
    assert normalize_manifold(m) == m


def test_rationally_essential():
    assert not is_rationally_essential(S3)
    assert not is_rationally_essential(Manifold((S2xS1(), Spherical(120))))
    assert is_rationally_essential(
        Manifold((SeifertFibered(SeifertData(2, 0)), Spherical(2))))
    assert is_rationally_essential(Manifold((Sol(),)))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

# Legal raw Seifert pairs: coprime, so no pair ever reduces to an ordinary
# fiber (beta = 0 mod alpha is the non-coprime ordinary-fiber case, covered
# separately above).
fiber_pairs = st.tuples(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=-20, max_value=20),
).filter(lambda ab: ab[1] % ab[0] != 0 and gcd(ab[0], ab[1] % ab[0]) == 1)

raw_seifert = st.builds(
    SeifertData,
    genus=st.integers(min_value=0, max_value=4),
    obstruction=st.integers(min_value=-10, max_value=10),
    fibers=st.lists(fiber_pairs, max_size=5).map(tuple),
)


@settings(derandomize=True, max_examples=200)
@given(raw_seifert)
def test_normalize_idempotent(s):
    once = normalize_seifert(s)
    assert normalize_seifert(once) == once
    assert once.is_normalized


@settings(derandomize=True, max_examples=200)
@given(raw_seifert)
def test_normalize_preserves_invariants(s):
    out = normalize_seifert(s)
    assert euler_number(out) == euler_number(s)
    assert orbifold_euler_characteristic(out) == orbifold_euler_characteristic(s)


@settings(derandomize=True, max_examples=200)
@given(raw_seifert)
def test_geometry_invariant_under_normalization(s):
    if orbifold_euler_characteristic(s) > 0:
        return
    raw_piece = SeifertFibered(s)
    norm_piece = SeifertFibered(normalize_seifert(s))
    assert classify_geometry(raw_piece) == classify_geometry(norm_piece)


@settings(derandomize=True, max_examples=200)
@given(raw_seifert)
def test_geometry_dispatch_total(s):
    if orbifold_euler_characteristic(s) > 0:
        return
    geom = classify_geometry(SeifertFibered(normalize_seifert(s)))
    assert geom in (Geometry.E3, Geometry.H2xR, Geometry.Nil, Geometry.SL2Rtilde)


@settings(derandomize=True, max_examples=100)
@given(st.permutations([SeifertFibered(SeifertData(1, -1)), S2xS1(),
                        Spherical(3), Hyperbolic(), Sol()]))
def test_piece_order_never_matters(perm):
    reference = Manifold((SeifertFibered(SeifertData(1, -1)), S2xS1(),
                          Spherical(3), Hyperbolic(), Sol()))
    shuffled = Manifold(tuple(perm))
    assert shuffled == reference
    assert normalize_manifold(shuffled) == normalize_manifold(reference)
    assert is_rationally_essential(shuffled) == is_rationally_essential(reference)
    assert describe(shuffled) == describe(reference)


def test_multiset_counts():
    m = Manifold((S2xS1(), Spherical(3), S2xS1(), Hyperbolic(), S2xS1()))
    assert m.counts == ((Spherical(3), 1), (S2xS1(), 3), (Hyperbolic(), 1))
    assert m.pieces == (Spherical(3), S2xS1(), S2xS1(), S2xS1(), Hyperbolic())
    assert m == Manifold.from_counts(
        [(Hyperbolic(), 1), (S2xS1(), 2), (Spherical(3), 1), (S2xS1(), 1),
         (Sol(), 0)])
    assert Manifold.from_counts([(S2xS1(), 0)]) == S3
    with pytest.raises(ValueError):
        Manifold.from_counts([(S2xS1(), -1)])
    # two spellings of one Seifert piece merge into one entry of count 2
    m = normalize_manifold(parse_manifold(
        "SFS(g=1; b=0; (2,3)) # SFS(g=1; b=1; (2,1))"))
    assert m.counts == ((SeifertFibered(SeifertData(1, 1, ((2, 1),))), 2),)
    assert describe(m) == "SFS(g=1; b=1; (2,1)) # SFS(g=1; b=1; (2,1))"


def test_normalize_manifold_idempotent_on_samples():
    for text in ["S3", "SFS(g=0; b=0)", "SFS(g=1; b=0; (2,5))",
                 "Hyperbolic # Spherical(8) # S2xS1"]:
        once = normalize_manifold(parse_manifold(text))
        assert normalize_manifold(once) == once
