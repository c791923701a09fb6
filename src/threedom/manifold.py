"""Symbolic closed oriented 3-manifolds and their prime pieces.

A manifold is a multiset of prime pieces (its Kneser-Milnor decomposition),
held as distinct pieces with their multiplicities, so that #_n(S^2 x S^1)
costs the same whatever n is; the empty multiset denotes S^3.  Seifert
fibered pieces carry Seifert invariants over a closed orientable base
surface; hyperbolic, Sol and other aspherical pieces are opaque markers,
since nothing downstream ever needs their internal data.

All invariants are exact rationals (`fractions.Fraction`).  Every decision
made from them is a zero-test or a sign-test, so floating point is never
acceptable here.

Euler number convention: e = -(b + sum beta_i/alpha_i).  Only the vanishing
of e matters to any classification rule, but the sign convention is applied
consistently everywhere, including in reported witnesses.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Iterable, Union


class ParseError(ValueError):
    """Syntax or range error in a manifold description, with position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class NormalizationError(ValueError):
    """Seifert data denoting a spherical space form (or other rejected input)."""


# ---------------------------------------------------------------------------
# Seifert invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeifertData:
    """Seifert invariants (g; b; (alpha_1,beta_1),...,(alpha_k,beta_k)).

    The base is the closed orientable surface of the given genus; b is the
    integer obstruction of a section; each pair (alpha, beta) with alpha >= 2
    is an exceptional fiber.  Fibers are stored sorted, so two data sets with
    permuted fiber lists compare equal.
    """

    genus: int
    obstruction: int
    fibers: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError(f"base genus must be >= 0, got {self.genus}")
        fibers = tuple(sorted((int(a), int(b)) for a, b in self.fibers))
        object.__setattr__(self, "fibers", fibers)
        for alpha, beta in fibers:
            if alpha < 2:
                raise ValueError(f"fiber invariant alpha must be >= 2, got {alpha}")
            r = beta % alpha
            if r != 0 and gcd(alpha, r) != 1:
                raise ValueError(
                    f"fiber invariants ({alpha},{beta}) are not coprime"
                )

    @property
    def is_normalized(self) -> bool:
        return all(0 < b < a for a, b in self.fibers)


def normalize_seifert(raw: SeifertData) -> SeifertData:
    """Reduce every beta_i into (0, alpha_i), folding quotients into b.

    Pairs whose reduced beta is 0 were ordinary fibers and are dropped.
    The Euler number is unchanged: beta/alpha = (beta // alpha) + (beta % alpha)/alpha.
    """
    b = raw.obstruction
    fibers = []
    for alpha, beta in raw.fibers:
        q, r = divmod(beta, alpha)
        b += q
        if r != 0:
            fibers.append((alpha, r))
    return SeifertData(raw.genus, b, tuple(fibers))


def euler_number(s: SeifertData) -> Fraction:
    """e(s) = -(b + sum beta_i/alpha_i), exact."""
    return -(Fraction(s.obstruction)
             + sum((Fraction(b, a) for a, b in s.fibers), Fraction(0)))


def orbifold_euler_characteristic(s: SeifertData) -> Fraction:
    """chi_orb = 2 - 2g - sum (1 - 1/alpha_i), exact."""
    return (Fraction(2 - 2 * s.genus)
            - sum((1 - Fraction(1, a) for a, _ in s.fibers), Fraction(0)))


# ---------------------------------------------------------------------------
# Prime pieces and manifolds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeifertFibered:
    data: SeifertData


@dataclass(frozen=True)
class Spherical:
    """An S^3-geometry piece, recorded only by the order of its group."""

    order: int

    def __post_init__(self):
        if self.order < 2:
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


PrimePiece = Union[SeifertFibered, Spherical, S2xS1, Hyperbolic, Sol, OtherAspherical]

_PIECE_ORDER = (SeifertFibered, Spherical, S2xS1, Hyperbolic, Sol, OtherAspherical)


def _piece_key(p: PrimePiece):
    rank = _PIECE_ORDER.index(type(p))
    if isinstance(p, SeifertFibered):
        return (rank, p.data.genus, p.data.obstruction, p.data.fibers)
    if isinstance(p, Spherical):
        return (rank, p.order)
    return (rank,)


@dataclass(frozen=True, init=False)
class Manifold:
    """A multiset of prime pieces; the empty multiset is S^3.

    `counts` holds each distinct piece once, with its multiplicity, in a
    fixed canonical order, so every operation is automatically invariant
    under permutations of the connected summands.  `pieces` lists every
    summand in that order and is built, on first use, by tuple repetition.
    """

    counts: tuple[tuple[PrimePiece, int], ...]

    def __init__(self, pieces: Iterable[PrimePiece] = ()):
        object.__setattr__(self, "counts", _canonical_counts(Counter(pieces)))

    @classmethod
    def from_counts(cls, counts: Iterable[tuple[PrimePiece, int]]) -> Manifold:
        """The sum of `count` copies of each `piece`; repeated pieces add up."""
        tally: Counter = Counter()
        for piece, count in counts:
            if count < 0:
                raise ValueError(f"multiplicity must be >= 0, got {count}")
            tally[piece] += count
        m = cls()
        object.__setattr__(m, "counts", _canonical_counts(tally))
        return m

    @cached_property
    def pieces(self) -> tuple[PrimePiece, ...]:
        return tuple(chain.from_iterable((p,) * c for p, c in self.counts))


def _canonical_counts(tally: Counter) -> tuple[tuple[PrimePiece, int], ...]:
    return tuple(sorted(((p, c) for p, c in tally.items() if c),
                        key=lambda pc: _piece_key(pc[0])))


S3 = Manifold(())


def describe(m: Manifold) -> str:
    """Render a manifold back into the input grammar (canonical form)."""
    if not m.counts:
        return "S3"
    return " # ".join(" # ".join([_describe_piece(p)] * c) for p, c in m.counts)


def _describe_piece(p: PrimePiece) -> str:
    if isinstance(p, SeifertFibered):
        s = p.data
        if s.fibers:
            pairs = ", ".join(f"({a},{b})" for a, b in s.fibers)
            return f"SFS(g={s.genus}; b={s.obstruction}; {pairs})"
        return f"SFS(g={s.genus}; b={s.obstruction})"
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
    """Assign the Thurston geometry of a normalized prime piece.

    For Seifert pieces the dispatch is on (sign of chi_orb, vanishing of e);
    pieces with chi_orb > 0 must have been eliminated by normalize_manifold.
    """
    if isinstance(p, SeifertFibered):
        s = normalize_seifert(p.data)
        chi = orbifold_euler_characteristic(s)
        if chi > 0:
            raise NormalizationError(
                "Seifert piece with chi_orb > 0: normalize_manifold was not applied"
            )
        e = euler_number(s)
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
    """Canonical form: Seifert pieces normalized, positive-chi_orb cases removed.

    A Seifert piece with chi_orb > 0, e = 0 and no exceptional fibers is the
    trivial bundle over S^2 and is rewritten to S2xS1.  Every other Seifert
    piece with chi_orb > 0 is a spherical space form and is rejected: the
    order bookkeeping for those lives outside this model, so the user must
    specify Spherical(order) instead.
    """
    counts: list[tuple[PrimePiece, int]] = []
    for p, count in m.counts:
        if isinstance(p, SeifertFibered):
            s = normalize_seifert(p.data)
            chi = orbifold_euler_characteristic(s)
            if chi > 0:
                if euler_number(s) != 0:
                    raise NormalizationError(
                        f"{_describe_piece(SeifertFibered(s))} is a spherical "
                        "space form: specify as Spherical(order)"
                    )
                if s.fibers:
                    raise NormalizationError(
                        f"{_describe_piece(SeifertFibered(s))} has chi_orb > 0 "
                        "with exceptional fibers: specify as Spherical(order) "
                        "or S2xS1 as appropriate"
                    )
                counts.append((S2xS1(), count))
            else:
                counts.append((SeifertFibered(s), count))
        else:
            counts.append((p, count))
    return Manifold.from_counts(counts)


def is_rationally_essential(m: Manifold) -> bool:
    """True iff some prime piece is aspherical.

    Normalized Seifert pieces have chi_orb <= 0 and are aspherical; so are
    hyperbolic, Sol and the other opaque aspherical markers.  S2xS1 and
    spherical pieces are not.
    """
    return any(
        isinstance(p, (SeifertFibered, Hyperbolic, Sol, OtherAspherical))
        for p, _ in m.counts
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*|-?\d+|[#();,=]|\S")

# Pieces are immutable, so every occurrence of a marker shares one instance.
_MARKERS = {
    "S2xS1": S2xS1(),
    "Hyperbolic": Hyperbolic(),
    "Sol": Sol(),
    "OtherAspherical": OtherAspherical(),
}


class _Tokens:
    def __init__(self, text: str):
        self.items: list[tuple[str, int, int]] = []
        for lineno, line in enumerate(text.splitlines() or [""], start=1):
            for mo in _TOKEN_RE.finditer(line):
                self.items.append((mo.group(), lineno, mo.start() + 1))
        last_line = text.count("\n") + 1
        self.items.append(("", last_line, len(text.splitlines()[-1]) + 1 if text else 1))
        self.pos = 0

    def peek(self) -> str:
        return self.items[self.pos][0]

    def where(self) -> tuple[int, int]:
        return self.items[self.pos][1], self.items[self.pos][2]

    def take(self) -> str:
        tok = self.items[self.pos][0]
        if tok:
            self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.peek()
        if got != tok:
            line, col = self.where()
            shown = got if got else "end of input"
            raise ParseError(f"expected '{tok}', found '{shown}'", line, col)
        self.take()

    def expect_int(self) -> int:
        got = self.peek()
        if not re.fullmatch(r"-?\d+", got or ""):
            line, col = self.where()
            shown = got if got else "end of input"
            raise ParseError(f"expected an integer, found '{shown}'", line, col)
        self.take()
        return int(got)


def parse_manifold(text: str) -> Manifold:
    """Parse a manifold description; returns the literal, un-normalized manifold.

    Grammar (whitespace-insensitive)::

        manifold  := "S3" | piece ( "#" piece )*
        piece     := sfs | "Spherical(" INT ")" | "S2xS1" | "Hyperbolic"
                         | "Sol" | "OtherAspherical"
        sfs       := "SFS(" "g=" INT ";" "b=" INT ( ";" pairs )? ")"
        pairs     := "(" INT "," INT ")" ( "," "(" INT "," INT ")" )*
    """
    toks = _Tokens(text)
    if toks.peek() == "":
        line, col = toks.where()
        raise ParseError("empty description", line, col)
    if toks.peek() == "S3":
        toks.take()
        if toks.peek() != "":
            line, col = toks.where()
            raise ParseError("'S3' is the empty connected sum and stands alone",
                             line, col)
        return S3
    pieces = [_parse_piece(toks)]
    while toks.peek() == "#":
        toks.take()
        pieces.append(_parse_piece(toks))
    if toks.peek() != "":
        line, col = toks.where()
        raise ParseError(f"unexpected '{toks.peek()}'", line, col)
    return Manifold(pieces)


def _parse_piece(toks: _Tokens) -> PrimePiece:
    tok = toks.peek()
    line, col = toks.where()
    if tok in _MARKERS:
        toks.take()
        return _MARKERS[tok]
    if tok == "Spherical":
        toks.take()
        toks.expect("(")
        n_line, n_col = toks.where()
        order = toks.expect_int()
        toks.expect(")")
        if order < 2:
            raise ParseError(f"Spherical order must be >= 2, got {order}",
                             n_line, n_col)
        return Spherical(order)
    if tok == "SFS":
        toks.take()
        toks.expect("(")
        toks.expect("g")
        toks.expect("=")
        g_line, g_col = toks.where()
        genus = toks.expect_int()
        if genus < 0:
            raise ParseError(f"base genus must be >= 0, got {genus}", g_line, g_col)
        toks.expect(";")
        toks.expect("b")
        toks.expect("=")
        b = toks.expect_int()
        fibers = []
        if toks.peek() == ";":
            toks.take()
            while True:
                toks.expect("(")
                a_line, a_col = toks.where()
                alpha = toks.expect_int()
                toks.expect(",")
                beta = toks.expect_int()
                toks.expect(")")
                if alpha < 2:
                    raise ParseError(
                        f"fiber invariant alpha must be >= 2, got {alpha}",
                        a_line, a_col)
                r = beta % alpha
                if r != 0 and gcd(alpha, r) != 1:
                    raise ParseError(
                        f"fiber invariants ({alpha},{beta}) are not coprime",
                        a_line, a_col)
                fibers.append((alpha, beta))
                if toks.peek() != ",":
                    break
                toks.take()
        toks.expect(")")
        return SeifertFibered(SeifertData(genus, b, tuple(fibers)))
    shown = tok if tok else "end of input"
    raise ParseError(f"expected a prime piece, found '{shown}'", line, col)


def format_rational(x: Fraction) -> str:
    """Render an exact rational as 'p' or 'p/q'."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
