"""Symbolic closed oriented 3-manifolds and their prime pieces.

A manifold is a multiset of prime pieces (its Kneser-Milnor decomposition),
held as distinct pieces with their multiplicities, so that #_n(S^2 x S^1)
costs the same whatever n is; the empty multiset denotes S^3.  A Seifert
fibered piece is its Seifert invariants over a closed orientable base
surface, a `SeifertData`; hyperbolic, Sol and other aspherical pieces are
opaque markers, since nothing downstream needs their internal data.  Pieces
and manifolds alike are normalized when they are built.

All invariants are exact rationals.  Each Seifert invariant is an integer
sum over L = lcm(alpha_i), every 1/alpha_i being a multiple of 1/L, and
becomes one `fractions.Fraction` at the end.  Every decision made from them
is a zero-test or a sign-test, so floating point is never acceptable here.

Euler number convention: e = -(b + sum beta_i/alpha_i).  Only the vanishing
of e matters to any classification rule, but the sign convention is applied
consistently everywhere, including in reported witnesses.
"""

from __future__ import annotations

import re
import reprlib
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, wraps
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Union, get_args


class ParseError(ValueError):
    """Syntax or range error in a manifold description, with position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class NormalizationError(ValueError):
    """Seifert data denoting a spherical space form (or other rejected input)."""


def require_int(field: str, value) -> int:
    """`value` if it is an `int` and not a `bool`, else a ValueError naming
    `field`: a float must not be truncated, nor a flag read as a number."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def int_digit_limit() -> int:
    """The most decimal digits an int may have to be read from or written as
    text on this interpreter (`sys.get_int_max_str_digits`); 0 for none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _read(argument: str, items: str, value):
    """`iter(value)`, else a ValueError naming the constructor `argument`
    and the `items` it must hold.  None, a mapping (which would be read by
    its keys) and a value that is not iterable are refused."""
    try:
        if value is None or isinstance(value, Mapping):
            raise TypeError
        return iter(value)
    except TypeError:
        raise ValueError(f"{argument} must be an iterable of {items}, "
                         f"got {reprlib.repr(value)}") from None


def _pair(argument: str, pair: str, entry) -> tuple:
    """`entry` unpacked as a pair, else a ValueError naming the constructor
    `argument` that holds it and the `pair` expected there."""
    try:
        first, second = entry
    except (TypeError, ValueError):
        raise ValueError(f"{argument} must hold {pair} pairs, got {entry!r}") from None
    return first, second


# ---------------------------------------------------------------------------
# Seifert invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeifertData:
    """Seifert invariants (g; b; (alpha_1,beta_1),...,(alpha_k,beta_k)).

    A Seifert piece is its invariants: this class is the Seifert member of
    `PrimePiece`.  The base is the closed orientable surface of the given
    genus; b is the integer obstruction of a section; each pair (alpha, beta)
    with alpha >= 2 is an exceptional fiber.

    The invariants fix a piece only up to beta_i -> beta_i + k alpha_i,
    b -> b - k and ordinary fibers (beta = 0 mod alpha), so every instance
    is normalized when it is built: each beta_i reduced into (0, alpha_i),
    the quotients folded into b, ordinary fibers dropped, the rest sorted.
    Two spellings of one piece compare equal, and the Euler number is kept:
    beta/alpha = (beta // alpha) + (beta % alpha)/alpha.  A piece that
    would make the program print an integer longer than `int_digit_limit()`
    is a ValueError (`_over_digit_limit`).
    """

    genus: int
    obstruction: int
    fibers: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if require_int("base genus", self.genus) < 0:
            raise ValueError(f"base genus must be >= 0, got {self.genus}")
        obstruction, fibers = require_int("obstruction b", self.obstruction), []
        pairs = (_pair("fibers", "(alpha, beta)", f)
                 for f in _read("fibers", "(alpha, beta) pairs", self.fibers))
        for alpha, beta in sorted((require_int("fiber invariant alpha", a),
                                   require_int("fiber invariant beta", b))
                                  for a, b in pairs):
            if alpha < 2:
                raise ValueError(f"fiber invariant alpha must be >= 2, got {alpha}")
            q, r = divmod(beta, alpha)
            if r != 0 and gcd(alpha, r) != 1:
                raise ValueError(
                    f"fiber invariants ({alpha},{beta}) are not coprime"
                )
            obstruction += q
            if r != 0:
                fibers.append((alpha, r))
        limit = int_digit_limit()
        if limit and _over_digit_limit(self.genus, obstruction, fibers, limit):
            raise ValueError(
                f"the Seifert piece or its finite cover has an invariant of "
                f"more than {limit} digits, the limit on integers written "
                "as text")
        object.__setattr__(self, "obstruction", obstruction)
        object.__setattr__(self, "fibers", tuple(sorted(fibers)))


def _over_digit_limit(genus: int, obstruction: int,
                      fibers: list[tuple[int, int]], limit: int) -> bool:
    """Whether an integer printed for the normalized Seifert piece
    (genus; obstruction; fibers) has more than `limit` digits.

    Its finite cover has degree d = L or 2L, L = lcm(alpha_i), Euler number
    d*e and 2 - 2g' = d*chi_orb (`engine.seifert_cover_parameters`).  These
    and b bound every integer printed: L, g', and the terms of e and
    chi_orb, whose denominators divide L.  All of them are below 2 L M,
    M = |b| + 2g + 2k + 2 for k fibers, and 2**(3 * limit) < 10**limit,
    so bit lengths settle most pieces; else L is built fiber by fiber, and
    refused once 4 * limit bits long, before an exact test.
    """
    bound = abs(obstruction) + 2 * genus + 2 * len(fibers) + 2
    if sum(a.bit_length() for a, _ in fibers) + bound.bit_length() < 3 * limit:
        return False
    fiber_lcm = 1
    for alpha, _ in fibers:
        fiber_lcm = lcm(fiber_lcm, alpha)
        if fiber_lcm.bit_length() > 4 * limit:  # 2**(4 * limit) > 10**limit
            return True
    lcm_e = -(obstruction * fiber_lcm
              + sum(beta * (fiber_lcm // alpha) for alpha, beta in fibers))
    lcm_chi = ((2 - 2 * genus - len(fibers)) * fiber_lcm
               + sum(fiber_lcm // alpha for alpha, _ in fibers))
    scale = 1 + lcm_chi % 2     # d = scale * L
    big = max(abs(obstruction), scale * fiber_lcm, scale * abs(lcm_e),
              scale * abs(lcm_chi))
    return big >= 10 ** limit


def memoized_on_value(f):
    """f(x) computed once per frozen x and kept in x's own __dict__, as
    `Manifold.pieces` keeps its `cached_property`: it lives and dies with
    x, so nothing needs clearing.  An exception is not kept.  Callers look
    f up on its module, so a replaced module attribute is still seen.  Of
    the shared values only `S3` keeps one, its pure `free_product_data`."""
    @wraps(f)
    def memo(x):
        try:
            return x.__dict__[f.__name__]
        except KeyError:
            value = x.__dict__[f.__name__] = f(x)
            return value
    return memo


@memoized_on_value
def euler_number(s: SeifertData) -> Fraction:
    """e(s) = -(b + sum beta_i/alpha_i), exact: an integer sum over
    L = lcm(alpha_i), divided by L once.  Kept on the value, a frozen
    piece: the three routes ask for it many times per query."""
    fiber_lcm = lcm(*(alpha for alpha, _ in s.fibers))
    lcm_e = -(s.obstruction * fiber_lcm
              + sum(beta * (fiber_lcm // alpha) for alpha, beta in s.fibers))
    return Fraction(lcm_e, fiber_lcm)


@memoized_on_value
def orbifold_euler_characteristic(s: SeifertData) -> Fraction:
    """chi_orb = 2 - 2g - sum (1 - 1/alpha_i), exact: an integer sum over
    L = lcm(alpha_i), divided by L once.  Kept on the value too."""
    fiber_lcm = lcm(*(alpha for alpha, _ in s.fibers))
    lcm_chi = ((2 - 2 * s.genus - len(s.fibers)) * fiber_lcm
               + sum(fiber_lcm // alpha for alpha, _ in s.fibers))
    return Fraction(lcm_chi, fiber_lcm)


# ---------------------------------------------------------------------------
# Prime pieces and manifolds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spherical:
    """An S^3-geometry piece, recorded only by the order of its group."""

    order: int

    def __post_init__(self):
        if require_int("Spherical order", self.order) < 2:
            raise ValueError(
                f"Spherical order must be >= 2, got {self.order}; "
                "the trivial group is the empty connected sum, never a piece"
            )


@dataclass(frozen=True)
class S2xS1:
    pass


@dataclass(frozen=True)
class Hyperbolic:
    pass


@dataclass(frozen=True)
class Sol:
    pass


@dataclass(frozen=True)
class OtherAspherical:
    """Irreducible, aspherical, neither Seifert fibered nor hyperbolic nor Sol."""


PrimePiece = Union[SeifertData, Spherical, S2xS1, Hyperbolic, Sol, OtherAspherical]

_PIECE_RANK = {t: rank for rank, t in enumerate(get_args(PrimePiece))}


def _piece_key(pc: tuple[PrimePiece, int]):
    """A (piece, count) pair's sort key: the piece type's place in
    PrimePiece, then the piece's fields in declaration order (not `vars`,
    which also holds the values kept by `memoized_on_value`)."""
    return (_PIECE_RANK[type(pc[0])],
            *[getattr(pc[0], name) for name in pc[0].__dataclass_fields__])


@dataclass(frozen=True)
class Manifold:
    """A multiset of prime pieces; the empty multiset is S^3.

    `Manifold(counts)` is the sum of `count` copies of each `piece` in the
    (piece, count) pairs `counts`; repeated pieces add up.  It keeps each
    distinct piece once, with its multiplicity, in a fixed canonical order,
    so every operation is automatically invariant under permutations of the
    connected summands.  Every piece goes through `_normalize_piece`, so an
    unnormalized manifold cannot exist.
    """

    counts: tuple[tuple[PrimePiece, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "counts", _canonical_counts(
            _read("counts", "(piece, multiplicity) pairs", self.counts)))

    @cached_property
    def pieces(self) -> tuple[PrimePiece, ...]:
        """Every summand, in order; read only by the benchmark harness."""
        return tuple(chain.from_iterable((p,) * c for p, c in self.counts))


def _canonical_counts(counts: Iterable[tuple[PrimePiece, int]]
                      ) -> tuple[tuple[PrimePiece, int], ...]:
    """The counts added up per piece after `_normalize_piece`, so that
    pieces that normalize equal merge, without zeros, in canonical order."""
    normal: dict[PrimePiece, int] = {}
    for entry in counts:
        piece, count = _pair("counts", "(piece, multiplicity)", entry)
        if type(piece) not in _PIECE_RANK:
            raise ValueError(f"{piece!r} is not a prime piece: expected one of "
                             + ", ".join(t.__name__ for t in _PIECE_RANK))
        if require_int("multiplicity", count) < 0:
            raise ValueError(f"multiplicity must be >= 0, got {count}")
        if count:
            piece = _normalize_piece(piece)
            normal[piece] = normal.get(piece, 0) + count
    return tuple(sorted(normal.items(), key=_piece_key))


S3 = Manifold()


def describe(m: Manifold) -> str:
    """Render a manifold back into the input grammar (canonical form)."""
    if not m.counts:
        return "S3"
    spelled = [(describe_piece(p), c) for p, c in m.counts]
    return " # ".join((s + " # ") * (c - 1) + s for s, c in spelled)


def describe_piece(p: PrimePiece) -> str:
    """Render one prime piece in the input grammar."""
    if isinstance(p, SeifertData):
        if p.fibers:
            pairs = ", ".join(f"({a},{b})" for a, b in p.fibers)
            return f"SFS(g={p.genus}; b={p.obstruction}; {pairs})"
        return f"SFS(g={p.genus}; b={p.obstruction})"
    if isinstance(p, Spherical):
        return f"Spherical({p.order})"
    return type(p).__name__


# ---------------------------------------------------------------------------
# Thurston geometries
# ---------------------------------------------------------------------------

class Geometry(Enum):
    E3 = "E3"
    H2xR = "H2xR"
    S2xR = "S2xR"
    S3geom = "S3geom"
    Nil = "Nil"
    SL2Rtilde = "SL2Rtilde"
    H3 = "H3"
    SolGeom = "SolGeom"
    NonGeometric = "NonGeometric"


def classify_geometry(p: PrimePiece) -> Geometry:
    """Assign the Thurston geometry of a prime piece of a manifold.

    A Seifert piece is read as given, since its data is normalized when it
    is built; the dispatch is on (sign of chi_orb, vanishing of e).  No
    `Manifold` holds a Seifert piece with chi_orb > 0, since building one
    rewrites or rejects it; a bare such piece is a NormalizationError.
    """
    if isinstance(p, SeifertData):
        chi = orbifold_euler_characteristic(p)
        if chi > 0:
            raise NormalizationError(
                "Seifert piece with chi_orb > 0 is not a summand of a Manifold"
            )
        e = euler_number(p)
        if chi == 0:
            return Geometry.E3 if e == 0 else Geometry.Nil
        return Geometry.H2xR if e == 0 else Geometry.SL2Rtilde
    if isinstance(p, S2xS1):
        return Geometry.S2xR
    if isinstance(p, Spherical):
        return Geometry.S3geom
    if isinstance(p, Hyperbolic):
        return Geometry.H3
    if isinstance(p, Sol):
        return Geometry.SolGeom
    return Geometry.NonGeometric


# ---------------------------------------------------------------------------
# Manifold normalization and essentialness
# ---------------------------------------------------------------------------

def normalize_manifold(m: Manifold) -> Manifold:
    """The identity: every `Manifold` is normalized when it is built.  Only
    the benchmark harness (`perfbench/ops.py`, `perfbench/tracing.py`)
    calls it, and traces it by name."""
    return m


def _normalize_piece(p: PrimePiece) -> PrimePiece:
    """The rules for a Seifert piece with chi_orb > 0; other pieces pass.

    Seifert data is normalized when it is built, so only these rules are
    left.  A piece with chi_orb > 0, e = 0 and no exceptional fibers is the
    trivial bundle over S^2 and is rewritten to S2xS1.  Every other piece
    with chi_orb > 0 is a spherical space form and is rejected: the order
    bookkeeping for those lives outside this model, so the user must
    specify Spherical(order) instead.
    """
    if not isinstance(p, SeifertData) or orbifold_euler_characteristic(p) <= 0:
        return p
    if euler_number(p) != 0:
        raise NormalizationError(f"{describe_piece(p)} is a spherical space "
                                 "form: specify as Spherical(order)")
    if p.fibers:
        raise NormalizationError(
            f"{describe_piece(p)} has chi_orb > 0 with exceptional fibers: "
            "specify as Spherical(order) or S2xS1 as appropriate")
    return S2xS1()


def is_rationally_essential(m: Manifold) -> bool:
    """True iff some prime piece is aspherical.

    The Seifert pieces of a manifold have chi_orb <= 0, since building it
    rewrites or rejects the others, and are aspherical; so are
    hyperbolic, Sol and the other opaque aspherical markers.  S2xS1 and
    spherical pieces are not.
    """
    return any(
        isinstance(p, (SeifertData, Hyperbolic, Sol, OtherAspherical))
        for p, _ in m.counts
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*|-?[0-9]+|[#();,=]|\S")
_INT_RE = re.compile(r"-?[0-9]+")

# Pieces are immutable, so every occurrence of a marker shares one instance.
# A marker is spelled by its class name, as `describe` prints it.
_MARKERS = {type(p).__name__: p
            for p in (S2xS1(), Hyperbolic(), Sol(), OtherAspherical())}


class _Tokens:
    """The tokens of one summand spelling, ending in an empty token.

    `parts` is the whole description split on '#', and `piece` one of its
    entries; errors point into the first summand spelled `piece`.  `read`
    consumes a token pattern, and `found` reports a token off the pattern.
    """

    def __init__(self, parts: list[str], piece: str):
        self.parts = parts
        self.piece = piece
        self.items = _TOKEN_RE.findall(piece)
        self.items.append("")
        self.pos = 0

    def peek(self) -> str:
        return self.items[self.pos]

    def read(self, *pattern) -> list[int]:
        """Consume tokens matching `pattern`, literal tokens and `int` for an
        integer token, and return the integers."""
        ints = []
        for want in pattern:
            tok = self.items[self.pos]
            if want is int and _INT_RE.fullmatch(tok):
                digits, limit = len(tok.lstrip("-")), int_digit_limit()
                if limit and digits > limit:
                    raise self.error(f"integer of {digits} digits exceeds the "
                                     f"limit of {limit} digits")
                ints.append(int(tok))
            elif want != tok:
                raise self.found("an integer" if want is int else f"'{want}'")
            self.pos += 1
        return ints

    def found(self, what: str) -> ParseError:
        """`expected <what>, found '<token>'` at the next token; after the
        summand, that token is '#' or 'end of input'."""
        last = self.parts.index(self.piece) == len(self.parts) - 1
        tok = self.peek() or ("end of input" if last else "#")
        return self.error(f"expected {what}, found '{tok}'")

    def error(self, message: str, pos: Optional[int] = None) -> ParseError:
        """A ParseError at the token with index pos, by default the next one.

        Offsets, line and column are found only here, so parsing reads each
        spelling once."""
        offsets = [mo.start() for mo in _TOKEN_RE.finditer(self.piece)]
        offsets.append(len(self.piece))
        offset = offsets[self.pos if pos is None else pos]
        # The text before the error: the parts before the summand's first
        # occurrence, then the summand up to the token.
        i = self.parts.index(self.piece)
        before = "#".join(self.parts[:i] + [self.piece[:offset]])
        # The marker keeps a line break just before the offset from being
        # dropped by splitlines: the position is then on the next line.
        lines = (before + "^").splitlines()
        return ParseError(message, len(lines), len(lines[-1]))


def parse_manifold(text: str) -> Manifold:
    """Parse a manifold description into a normalized manifold.

    Each Seifert piece is normalized as every `SeifertData` is, and then
    goes through the chi_orb > 0 rules that every `Manifold` applies, here
    once per spelling so that a rejection has a position: SFS(g=0; b=0)
    reads as S2xS1, and a spherical spelling is a ParseError at its summand.

    Grammar (whitespace-insensitive)::

        manifold  := "S3" | piece ( "#" piece )*
        piece     := sfs | "Spherical(" INT ")" | "S2xS1" | "Hyperbolic"
                         | "Sol" | "OtherAspherical"
        sfs       := "SFS(" "g=" INT ";" "b=" INT ( ";" pairs )? ")"
        pairs     := "(" INT "," INT ")" ( "," "(" INT "," INT ")" )*

    '#' is a token of its own, so splitting the text on it gives the
    summands.  Each distinct spelling is parsed once, in the order of its
    first occurrence, so an error is reported at the first failing summand.
    A piece is read by its token pattern (`_Tokens.read`, `_Tokens.found`);
    a range error or a chi_orb > 0 rejection points at its first token, and
    an INT of more digits than `int_digit_limit()` at itself.
    """
    parts = text.split("#")
    counts = []
    for piece, count in Counter(parts).items():
        toks = _Tokens(parts, piece)
        if not counts:
            # Only the first token of the text can be the end or "S3".
            if toks.peek() == "" and len(parts) == 1:
                raise toks.error("empty description")
            if toks.peek() == "S3":
                toks.read("S3")
                if toks.peek() or len(parts) > 1:
                    raise toks.error(
                        "'S3' is the empty connected sum and stands alone")
                return S3
        counts.append((_parse_piece(toks), count))
        if toks.peek():
            raise toks.error(f"unexpected '{toks.peek()}'")
    return Manifold(counts)


def _parse_piece(toks: _Tokens) -> PrimePiece:
    tok = toks.peek()
    if tok in _MARKERS:
        toks.read(tok)
        return _MARKERS[tok]
    if tok == "Spherical":
        (order,) = toks.read("Spherical", "(", int, ")")
        build = lambda: Spherical(order)
    elif tok == "SFS":
        genus, b = toks.read("SFS", "(", "g", "=", int, ";", "b", "=", int)
        sep, fibers = ";", []
        while toks.peek() == sep:
            fibers.append(tuple(toks.read(sep, "(", int, ",", int, ")")))
            sep = ","
        toks.read(")")
        build = lambda: _normalize_piece(SeifertData(genus, b, tuple(fibers)))
    else:
        raise toks.found("a prime piece")
    try:
        return build()
    except ValueError as exc:
        raise toks.error(str(exc), 0) from None
