import re
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from threedom import manifold
from threedom.engine import (
    cross_check,
    dominated_by_any_circle_bundle,
    dominated_by_nontrivial_circle_bundle,
    dominated_by_product,
    presentable_by_products,
)
from threedom.groups import FreeProductData
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
    Sol,
    Spherical,
    classify_geometry,
    describe,
    euler_number,
    is_rationally_essential,
    orbifold_euler_characteristic,
    parse_manifold,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_trivial_bundle():
    m = parse_manifold("SFS(g=1; b=0)")
    assert m == Manifold(((SeifertData(1, 0), 1),))


def test_parse_s3_is_empty_sum():
    assert parse_manifold("S3") == S3
    assert parse_manifold("  S3  ") == Manifold()


def test_parse_connected_sum():
    m = parse_manifold("Spherical(2) # Spherical(2)")
    assert m.pieces == (Spherical(2), Spherical(2))


def test_parse_fibers_and_whitespace():
    m = parse_manifold("SFS( g = 0 ; b = 1 ; (2,1),(3,1) , (7 , 1) )")
    assert m.pieces[0].fibers == ((2, 1), (3, 1), (7, 1))


@pytest.mark.parametrize("text, line, column, message", [
    ("Spherical(1)", 1, 1, "Spherical order must be >= 2, got 1; the trivial "
                           "group is the empty connected sum, never a piece"),
    ("Hyperbolic # Spherical( -3 )", 1, 14, "Spherical order must be >= 2"),
    ("SFS(g=-1; b=0)", 1, 1, "base genus must be >= 0, got -1"),
    ("SFS(g=1; b=0; (1,1))", 1, 1, "fiber invariant alpha must be >= 2, got 1"),
    ("SFS(g=0; b=1; (2,1), (4,2))", 1, 1, "fiber invariants (4,2) are not coprime"),
    ("S2xS1 #\n  SFS(g=0; b=0; (4,2))", 2, 3,
     "fiber invariants (4,2) are not coprime"),
    # The end of input lies after the last line break.
    ("SFS(\n", 2, 1, "expected 'g', found 'end of input'"),
    ("SFS(g=1; b=0", 1, 13, "expected ')', found 'end of input'"),
    ("Banana", 1, 1, "expected a prime piece, found 'Banana'"),
    ("", 1, 1, "empty description"),
    ("Sol\n#\n", 3, 1, "expected a prime piece, found 'end of input'"),
    # Integers are ASCII: other Unicode decimal digits are not.
    ("Spherical(\u0663) # S2xS1", 1, 11, "expected an integer, found '\u0663'"),
    ("S2xS1 #\nSFS(g=0; b=-1; (7,\uff11))", 2, 19,
     "expected an integer, found '\uff11'"),
    # Each distinct summand spelling is parsed once, yet errors point at the
    # first failing summand and name what follows it: '#' or the end.
    ("# Sol", 1, 1, "expected a prime piece, found '#'"),
    ("Sol # # Sol", 1, 7, "expected a prime piece, found '#'"),
    ("Sol # S2xS1\n#", 2, 2, "expected a prime piece, found 'end of input'"),
    ("S3 # Sol", 1, 4, "'S3' is the empty connected sum and stands alone"),
    ("S3 Sol", 1, 4, "'S3' is the empty connected sum and stands alone"),
    ("Spherical(2 # Sol", 1, 13, "expected ')', found '#'"),
    ("S2xS1 )", 1, 7, "unexpected ')' (line 1, column 7)"),
    # The chi_orb > 0 rules are range errors of the parse.
    ("S2xS1 # SFS(g=0; b=0; (2,3))", 1, 9,
     "SFS(g=0; b=1; (2,1)) is a spherical space form: specify as "
     "Spherical(order) (line 1, column 9)"),
    ("Sol #\n SFS(g=0; b=-1; (2,1), (2,1))", 2, 2,
     "SFS(g=0; b=-1; (2,1), (2,1)) has chi_orb > 0 with exceptional fibers"),
    pytest.param(" # ".join(["S2xS1"] * 10_000
                            + ["Spherical(1)", "Spherical(1)", "S2xS1"]),
                 1, 80_001, "Spherical order must be >= 2",
                 id="range-error-after-10000-summands"),
    ("S2xS1 #\nSol #\n  Hyperbolic # SFS(g=0; b=1; (4,2))", 3, 16,
     "fiber invariants (4,2) are not coprime"),
])
def test_range_errors_point_at_the_piece(text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse_manifold(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value).startswith(message)


# Valid spellings as token lists, with the piece each one denotes.
_SPELLINGS = [
    (("S2xS1",), S2xS1()),
    (("Sol",), Sol()),
    (("Hyperbolic",), Hyperbolic()),
    (("OtherAspherical",), OtherAspherical()),
    (("Spherical", "(", "8", ")"), Spherical(8)),
    (("SFS", "(", "g", "=", "1", ";", "b", "=", "0", ")"),
     SeifertData(1, 0)),
    (("SFS", "(", "g", "=", "0", ";", "b", "=", "-1", ";", "(", "2", ",", "1",
      ")", ",", "(", "3", ",", "1", ")", ",", "(", "7", ",", "1", ")", ")"),
     SeifertData(0, -1, ((2, 1), (3, 1), (7, 1)))),
    # The trivial bundle over S^2, spelled two ways, reads as S2xS1.
    (("SFS", "(", "g", "=", "0", ";", "b", "=", "0", ")"), S2xS1()),
    (("SFS", "(", "g", "=", "0", ";", "b", "=", "1", ";", "(", "2", ",", "-2",
      ")", ")"), S2xS1()),
]


@st.composite
def _summands(draw):
    tokens, piece = draw(st.sampled_from(_SPELLINGS))
    blanks = draw(st.lists(st.sampled_from(["", " ", "  ", "\n", "\t", " \n "]),
                           min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return blanks[0] + "".join(t + b for t, b in zip(tokens, blanks[1:])), piece


@settings(derandomize=True, max_examples=200)
@given(st.lists(_summands(), min_size=1, max_size=30))
def test_parse_sum_of_spellings(drawn):
    m = parse_manifold("#".join(text for text, _ in drawn))
    assert m == Manifold((p, 1) for _, p in drawn)
    assert parse_manifold(describe(m)) == m


# Tokens that may replace a token of a valid spelling; "" deletes it.
_REPLACEMENTS = ["#", "(", ")", ",", ";", "=", "S3", "g", "b", "-1", "0",
                 "\u0663", "x", ""]


@st.composite
def _mutated_sums(draw):
    """A sum of valid spellings with 1-3 tokens deleted, duplicated or
    replaced, joined with random blanks."""
    drawn = draw(st.lists(st.sampled_from(_SPELLINGS), min_size=1, max_size=3))
    tokens = [t for spelling, _ in drawn for t in ("#", *spelling)][1:]
    for _ in range(draw(st.integers(1, 3))):
        if not tokens:
            break
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        if edit == "delete":
            del tokens[i]
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i] = draw(st.sampled_from(_REPLACEMENTS))
    blanks = draw(st.lists(st.sampled_from(["", " ", "\n", "\t", " \n "]),
                           min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return blanks[0] + "".join(t + b for t, b in zip(tokens, blanks[1:]))


@settings(derandomize=True, max_examples=300)
@given(_mutated_sums())
def test_malformed_input_is_a_positioned_parse_error(text):
    try:
        assert isinstance(parse_manifold(text), Manifold)
    except ParseError as exc:
        lines = text.splitlines()
        assert 1 <= exc.line <= len(lines) + 1
        line = lines[exc.line - 1] if exc.line <= len(lines) else ""
        assert 1 <= exc.column <= len(line) + 1


def test_each_distinct_spelling_is_parsed_once(monkeypatch):
    calls = []
    parse_piece = manifold._parse_piece

    def counted(toks):
        calls.append(toks)
        return parse_piece(toks)

    monkeypatch.setattr(manifold, "_parse_piece", counted)
    m = parse_manifold(" # ".join(["S2xS1"] * 100_000))
    assert m.counts == ((S2xS1(), 100_000),)
    # "S2xS1 ", " S2xS1 " and " S2xS1"
    assert len(calls) == 3


def test_describe_roundtrip():
    for text in ["S3", "SFS(g=1; b=-1)", "Hyperbolic # Spherical(8)",
                 "SFS(g=0; b=1; (2,1), (3,1), (7,1)) # S2xS1"]:
        m = parse_manifold(text)
        assert parse_manifold(describe(m)) == m


# ---------------------------------------------------------------------------
# Seifert arithmetic
# ---------------------------------------------------------------------------

# Normalization is the `SeifertData` constructor's: these tests build a piece
# from raw data and check it against exact sums over the raw pairs.

def _raw_invariants(genus, b, pairs):
    """(e, chi_orb) of raw Seifert data, as exact Fraction sums over the
    pairs; an ordinary pair (beta = 0 mod alpha) counts only in e."""
    e = -(b + sum(Fraction(beta, alpha) for alpha, beta in pairs))
    chi = 2 - 2 * genus - sum(1 - Fraction(1, alpha)
                              for alpha, beta in pairs if beta % alpha)
    return e, chi


def test_normalize_folds_quotient_into_obstruction():
    # 5 = 2*2 + 1; Euler number preserved, against the raw Fraction sum.
    s = SeifertData(0, 1, ((2, 5),))
    assert (s.obstruction, s.fibers) == (3, ((2, 1),))
    assert s == SeifertData(0, 3, ((2, 1),))
    assert euler_number(s) == _raw_invariants(0, 1, ((2, 5),))[0] \
        == Fraction(-7, 2)


def test_normalize_already_normalized():
    s = SeifertData(1, 0)
    assert (s.genus, s.obstruction, s.fibers) == (1, 0, ())
    assert SeifertData(s.genus, s.obstruction, s.fibers) == s


def test_normalize_negative_quotient():
    s = SeifertData(2, -1, ((3, 4),))
    assert (s.obstruction, s.fibers) == (0, ((3, 1),))
    assert euler_number(s) == _raw_invariants(2, -1, ((3, 4),))[0] \
        == Fraction(-1, 3)


def test_two_spellings_of_one_piece_parse_to_one_entry():
    m = parse_manifold("SFS(g=0; b=0; (2,3), (3,1), (7,1))"
                       " # SFS(g=0; b=1; (2,1), (3,1), (7,1))")
    assert m.counts == ((SeifertData(0, 1, ((2, 1), (3, 1), (7, 1))), 2),)


def test_geometry_and_normalization_build_no_seifert_data(monkeypatch):
    pieces = [SeifertData(0, 1, ((2, 1), (3, 1), (7, 1))), SeifertData(1, -1),
              SeifertData(0, -1, ((3, 1),) * 3), SeifertData(2, 0)]
    s2_bundle = SeifertData(0, 0)
    built = []
    post_init = SeifertData.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SeifertData, "__post_init__", counted)
    geometries = [classify_geometry(p) for p in pieces]
    m = Manifold((p, 1) for p in (*pieces, s2_bundle, Spherical(2)))
    assert built == []
    assert geometries == [Geometry.SL2Rtilde, Geometry.Nil, Geometry.E3,
                          Geometry.H2xR]
    assert m == Manifold((p, 1) for p in (*pieces, S2xS1(), Spherical(2)))


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
    # beta = 0 mod alpha is an ordinary fiber, which is fine: it is dropped
    assert SeifertData(0, 0, ((4, 8),)) == SeifertData(0, 2)


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
    assert classify_geometry(data) == geometry


def test_classify_markers():
    assert classify_geometry(S2xS1()) == Geometry.S2xR
    assert classify_geometry(Spherical(8)) == Geometry.S3geom
    assert classify_geometry(Hyperbolic()) == Geometry.H3
    assert classify_geometry(Sol()) == Geometry.SolGeom
    assert classify_geometry(OtherAspherical()) == Geometry.NonGeometric


def test_classify_rejects_positive_chi_orb():
    with pytest.raises(NormalizationError):
        classify_geometry(SeifertData(0, 1))


def test_classify_rejects_chi_orb_below_one():
    # The Poincare data, chi_orb = 1/30: every chi_orb > 0 is refused.
    with pytest.raises(NormalizationError):
        classify_geometry(SeifertData(0, -1, ((2, 1), (3, 1), (5, 1))))


# ---------------------------------------------------------------------------
# Manifold normalization and essentialness
# ---------------------------------------------------------------------------

# The constructor, building the sum of the given pieces; a parameter, so
# that each test keeps its id.
_BUILDERS = [pytest.param(lambda pieces: Manifold((p, 1) for p in pieces),
                          id="Manifold")]


@pytest.mark.parametrize("build", _BUILDERS)
@pytest.mark.parametrize("s2_bundle", [
    pytest.param(SeifertData(0, 0), id="no-fibers"),
    pytest.param(SeifertData(0, 2, ((2, -4),)), id="ordinary-fiber"),
])
def test_constructors_rewrite_the_trivial_s2_bundle(build, s2_bundle):
    m = build((s2_bundle, S2xS1()))
    parsed = parse_manifold("S2xS1 # S2xS1")
    assert m.counts == ((S2xS1(), 2),)
    assert m == parsed
    for query in (dominated_by_product, dominated_by_nontrivial_circle_bundle,
                  dominated_by_any_circle_bundle, presentable_by_products,
                  cross_check):
        assert query(m) == query(parsed)


@pytest.mark.parametrize("build", _BUILDERS)
@pytest.mark.parametrize("data, spelling, rule", [
    pytest.param(SeifertData(0, 1), "SFS(g=0; b=1)",
                 "is a spherical space form", id="s3"),
    pytest.param(SeifertData(0, -1, ((2, 1), (3, 1), (5, 1))),
                 "SFS(g=0; b=-1; (2,1), (3,1), (5,1))",
                 "is a spherical space form", id="poincare-sphere"),
    pytest.param(SeifertData(0, -1, ((2, 1), (2, 1))),
                 "SFS(g=0; b=-1; (2,1), (2,1))",
                 "has chi_orb > 0 with exceptional fibers",
                 id="s2xs1-with-fibers"),
])
def test_constructors_reject_spherical_seifert_data(build, data, spelling,
                                                    rule):
    with pytest.raises(NormalizationError) as built:
        build((data, S2xS1()))
    assert str(built.value).startswith(
        f"{spelling} {rule}: specify as Spherical(order)")
    # The parser reports the same text, at the summand that spells the piece.
    with pytest.raises(ParseError) as parsed:
        parse_manifold(f"S2xS1 # {spelling}")
    assert str(parsed.value) == f"{built.value} (line 1, column 9)"


@pytest.mark.parametrize("build", _BUILDERS)
@pytest.mark.parametrize("value", [
    pytest.param("S2xS1", id="str"), pytest.param(1, id="int"),
    pytest.param(None, id="none"), pytest.param(S2xS1, id="class"),
])
def test_constructors_name_a_value_that_is_not_a_prime_piece(build, value):
    with pytest.raises(ValueError) as built:
        build((S2xS1(), value))
    assert str(built.value) == (
        f"{value!r} is not a prime piece: expected one of SeifertData, "
        "Spherical, S2xS1, Hyperbolic, Sol, OtherAspherical")


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: SeifertData(1, 0, ((2.7, 1),)),
                 "fiber invariant alpha must be an integer, got 2.7",
                 id="alpha-float"),
    pytest.param(lambda: SeifertData(1, 0, ((2, 1.9),)),
                 "fiber invariant beta must be an integer, got 1.9",
                 id="beta-float"),
    pytest.param(lambda: SeifertData(True, 0),
                 "base genus must be an integer, got True", id="genus-bool"),
    pytest.param(lambda: SeifertData(1.5, 0),
                 "base genus must be an integer, got 1.5", id="genus-float"),
    pytest.param(lambda: SeifertData(1, Fraction(1)),
                 "obstruction b must be an integer, got Fraction(1, 1)",
                 id="obstruction-fraction"),
    pytest.param(lambda: Spherical(2.5),
                 "Spherical order must be an integer, got 2.5",
                 id="order-float"),
    pytest.param(lambda: Manifold([(S2xS1(), 2.5), (Spherical(3), 1)]),
                 "multiplicity must be an integer, got 2.5",
                 id="multiplicity-float"),
    pytest.param(lambda: Manifold([(Sol(), True)]),
                 "multiplicity must be an integer, got True",
                 id="multiplicity-bool"),
    pytest.param(lambda: FreeProductData(1.0),
                 "free_rank must be an integer, got 1.0", id="free-rank-float"),
    pytest.param(lambda: FreeProductData(0, (2, 2.5)),
                 "finite factor order must be an integer, got 2.5",
                 id="factor-order-float"),
    # A malformed collection is named too, and never read as some manifold.
    pytest.param(lambda: Manifold(S2xS1()),
                 "counts must be an iterable of (piece, multiplicity) pairs, "
                 "got S2xS1()", id="counts-one-piece"),
    pytest.param(lambda: Manifold([S2xS1()]),
                 "counts must hold (piece, multiplicity) pairs, got S2xS1()",
                 id="counts-no-pair"),
    pytest.param(lambda: Manifold([(S2xS1(), 1, 2)]),
                 "counts must hold (piece, multiplicity) pairs, "
                 "got (S2xS1(), 1, 2)", id="counts-triple"),
    pytest.param(lambda: Manifold(None),
                 "counts must be an iterable of (piece, multiplicity) pairs, "
                 "got None", id="counts-none"),
    pytest.param(lambda: Manifold({(S2xS1(), 2): "x"}),
                 "counts must be an iterable of (piece, multiplicity) pairs, "
                 "got {(S2xS1(), 2): 'x'}", id="counts-mapping"),
    pytest.param(lambda: SeifertData(0, 0, None),
                 "fibers must be an iterable of (alpha, beta) pairs, got None",
                 id="fibers-none"),
    pytest.param(lambda: SeifertData(0, 0, {(2, 1): 5}),
                 "fibers must be an iterable of (alpha, beta) pairs, "
                 "got {(2, 1): 5}", id="fibers-mapping"),
    pytest.param(lambda: SeifertData(0, 0, (2, 1)),
                 "fibers must hold (alpha, beta) pairs, got 2",
                 id="fibers-one-pair"),
])
def test_constructors_reject_non_integers(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_already_canonical_untouched():
    m = Manifold(((Hyperbolic(), 1), (Spherical(8), 1)))
    assert m.counts == ((Spherical(8), 1), (Hyperbolic(), 1))
    assert Manifold(m.counts) == m


def test_rationally_essential():
    assert not is_rationally_essential(S3)
    assert not is_rationally_essential(
        Manifold(((S2xS1(), 1), (Spherical(120), 1))))
    assert is_rationally_essential(
        Manifold(((SeifertData(2, 0), 1), (Spherical(2), 1))))
    assert is_rationally_essential(Manifold(((Sol(), 1),)))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

# Legal raw Seifert pairs: alpha >= 2 and beta coprime to alpha mod alpha,
# or an ordinary fiber (beta = 0 mod alpha).
fiber_pairs = st.tuples(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=-20, max_value=20),
).filter(lambda ab: ab[1] % ab[0] == 0 or gcd(ab[0], ab[1] % ab[0]) == 1)

raw_seifert = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-10, max_value=10),
    st.lists(fiber_pairs, max_size=5).map(tuple),
)


@settings(derandomize=True, max_examples=200)
@given(raw_seifert)
def test_normalize_idempotent(raw):
    s = SeifertData(*raw)
    assert all(0 < b < a for a, b in s.fibers)
    assert SeifertData(s.genus, s.obstruction, s.fibers) == s


@settings(derandomize=True, max_examples=200)
@given(raw_seifert)
def test_normalize_preserves_invariants(raw):
    s = SeifertData(*raw)
    assert (euler_number(s), orbifold_euler_characteristic(s)) \
        == _raw_invariants(*raw)


@settings(derandomize=True, max_examples=200)
@given(raw_seifert)
def test_geometry_invariant_under_normalization(raw):
    e, chi = _raw_invariants(*raw)
    if chi > 0:
        return
    expected = {(True, True): Geometry.E3, (True, False): Geometry.Nil,
                (False, True): Geometry.H2xR, (False, False): Geometry.SL2Rtilde}
    assert classify_geometry(SeifertData(*raw)) == expected[chi == 0, e == 0]


@settings(derandomize=True, max_examples=100)
@given(st.permutations([SeifertData(1, -1), S2xS1(), SeifertData(0, 0),
                        Spherical(3), Hyperbolic(), Sol()]))
def test_piece_order_never_matters(perm):
    reference = Manifold(((SeifertData(1, -1), 1), (S2xS1(), 2),
                          (Spherical(3), 1), (Hyperbolic(), 1), (Sol(), 1)))
    shuffled = Manifold((p, 1) for p in perm)
    assert shuffled == reference
    assert is_rationally_essential(shuffled) == is_rationally_essential(reference)
    assert describe(shuffled) == describe(reference)


def test_canonical_order_is_pinned():
    # Types in the order Seifert, Spherical, S2xS1, Hyperbolic, Sol,
    # OtherAspherical; Seifert pieces by genus, then b, then fibers;
    # Spherical pieces by order, numerically.
    m = parse_manifold(
        "Sol # Spherical(12) # SFS(g=1; b=0; (3,1)) # OtherAspherical"
        " # S2xS1 # SFS(g=2; b=1) # SFS(g=1; b=0; (2,1), (2,1)) # Hyperbolic"
        " # SFS(g=1; b=0) # Spherical(3) # SFS(g=1; b=-2) # S2xS1"
        " # SFS(g=0; b=-1; (2,1), (3,1), (7,1)) # SFS(g=1; b=0; (2,1))")
    assert m.counts == (
        (SeifertData(0, -1, ((2, 1), (3, 1), (7, 1))), 1),
        (SeifertData(1, -2), 1),
        (SeifertData(1, 0), 1),
        (SeifertData(1, 0, ((2, 1),)), 1),
        (SeifertData(1, 0, ((2, 1), (2, 1))), 1),
        (SeifertData(1, 0, ((3, 1),)), 1),
        (SeifertData(2, 1), 1),
        (Spherical(3), 1), (Spherical(12), 1), (S2xS1(), 2),
        (Hyperbolic(), 1), (Sol(), 1), (OtherAspherical(), 1))
    assert describe(m) == (
        "SFS(g=0; b=-1; (2,1), (3,1), (7,1)) # SFS(g=1; b=-2)"
        " # SFS(g=1; b=0) # SFS(g=1; b=0; (2,1)) # SFS(g=1; b=0; (2,1), (2,1))"
        " # SFS(g=1; b=0; (3,1)) # SFS(g=2; b=1) # Spherical(3)"
        " # Spherical(12) # S2xS1 # S2xS1 # Hyperbolic # Sol # OtherAspherical")


def test_multiset_counts():
    m = Manifold((p, 1) for p in (S2xS1(), Spherical(3), S2xS1(),
                                  Hyperbolic(), S2xS1()))
    assert m.counts == ((Spherical(3), 1), (S2xS1(), 3), (Hyperbolic(), 1))
    assert m.pieces == (Spherical(3), S2xS1(), S2xS1(), S2xS1(), Hyperbolic())
    assert m == Manifold(
        [(Hyperbolic(), 1), (S2xS1(), 2), (Spherical(3), 1), (S2xS1(), 1),
         (Sol(), 0)])
    assert Manifold([(S2xS1(), 0)]) == S3
    with pytest.raises(ValueError):
        Manifold([(S2xS1(), -1)])
    # two spellings of one Seifert piece merge into one entry of count 2
    m = parse_manifold("SFS(g=1; b=0; (2,3)) # SFS(g=1; b=1; (2,1))")
    assert m.counts == ((SeifertData(1, 1, ((2, 1),)), 2),)
    assert describe(m) == "SFS(g=1; b=1; (2,1)) # SFS(g=1; b=1; (2,1))"


def test_normalize_manifold_idempotent_on_samples():
    # Building a manifold again from its own counts, or from its pieces one
    # at a time, changes nothing.
    for text in ["S3", "SFS(g=0; b=0)", "SFS(g=1; b=0; (2,5))",
                 "Hyperbolic # Spherical(8) # S2xS1"]:
        once = parse_manifold(text)
        assert Manifold((p, 1) for p in once.pieces) == Manifold(once.counts) \
            == once


# Raw pieces with their spellings: Seifert data as given, before any
# normalization, so that chi_orb > 0 data and ordinary fibers occur.
_raw_fibers = st.lists(st.tuples(st.integers(2, 5), st.integers(-10, 10)).filter(
    lambda ab: gcd(ab[0], ab[1] % ab[0]) in (1, ab[0])), max_size=3)
_raw_pieces = st.one_of(
    st.builds(lambda g, b, fibers: (
        SeifertData(g, b, tuple(fibers)),
        f"SFS(g={g}; b={b}" + "".join(
            f"{sep} ({a},{beta})" for sep, (a, beta)
            in zip([";"] + [","] * len(fibers), fibers)) + ")"),
        st.integers(0, 2), st.integers(-3, 3), _raw_fibers),
    st.builds(lambda q: (Spherical(q), f"Spherical({q})"), st.integers(2, 8)),
    st.sampled_from([(p, type(p).__name__) for p in
                     (S2xS1(), Hyperbolic(), Sol(), OtherAspherical())]),
)


@settings(derandomize=True, max_examples=200)
@given(st.lists(_raw_pieces, min_size=1, max_size=4))
def test_constructors_and_parser_agree(drawn):
    pieces = [p for p, _ in drawn]
    text = " # ".join(spelling for _, spelling in drawn)
    try:
        built = Manifold((p, 1) for p in pieces)
    except NormalizationError:
        with pytest.raises(ParseError):
            parse_manifold(text)
        with pytest.raises(NormalizationError):
            Manifold(Counter(pieces).items())
        return
    assert parse_manifold(text) == built
    assert Manifold(Counter(pieces).items()) == built
