"""Classification queries for domination by products and circle bundles.

Each domination query is decided along three routes that must agree:

* topological - finite-cover criteria (rationally inessential manifolds are
  finitely covered by #_n(S^2 x S^1); essential ones must be a single Seifert
  piece with the right Euler number);
* geometric   - dispatch on the Thurston geometry of the pieces;
* algebraic   - the shape of the fundamental group (virtually a surface group
  times Z, virtually free, or a central extension with non-zero Euler class).

`cross_check` evaluates all three independently; a discrepancy is an
implementation bug by construction, never a property of the input.  The
public queries answer with the topological verdict plus the certificate of
the case it accepted.  What sets the two kinds apart is a `_Kind`'s data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from typing import Callable, Iterator, Optional, Union

from .groups import free_cover_rank
from .manifold import (
    Geometry,
    Hyperbolic,
    Manifold,
    NormalizationError,
    OtherAspherical,
    PrimePiece,
    S2xS1,
    SeifertData,
    Sol,
    Spherical,
    classify_geometry,
    describe,
    euler_number,
    is_rationally_essential,
    memoized_on_value,
)
from .witness import (
    BranchedCoverSchema,
    FiniteCoverWitness,
    InessentialWitness,
    bundle_branched_cover_schema,
    free_product_data,
    product_branched_cover_schema,
)


class FinitePi1Error(ValueError):
    """Presentability by products is defined for infinite groups only."""


# ---------------------------------------------------------------------------
# Decisions and witnesses
# ---------------------------------------------------------------------------

Witness = Union[FiniteCoverWitness, InessentialWitness]


@dataclass(frozen=True)
class Decision:
    verdict: bool
    clause: str
    witness: Optional[Witness]
    explanation: str


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _prime_piece(m: Manifold) -> Optional[PrimePiece]:
    """The piece of m when m is one piece of multiplicity 1, else None."""
    if len(m.counts) == 1 and m.counts[0][1] == 1:
        return m.counts[0][0]
    return None


@memoized_on_value
def seifert_cover_parameters(s: SeifertData) -> tuple[int, int, int, str]:
    """(base genus g', degree d, Euler number e', status) of a witness cover.

    The cover is the circle bundle obtained by pulling s back along a
    finite orbifold cover Sigma_{g'} -> B of its base, that is, along a
    torsion-free subgroup of index d in the orbifold fundamental group.
    With L = lcm(alpha_i), such a subgroup exists exactly when L divides d
    and d * chi_orb is an even integer: Edmonds, Ewing and Kulkarni,
    "Torsion free subgroups of Fuchsian groups and tessellations of
    surfaces" (Invent. Math. 1982) for chi_orb < 0; the four Euclidean
    signatures (2,2,2,2), (3,3,3), (2,4,4) and (2,3,6) have cyclic torus
    covers of degree L.  Every 1/alpha_i is a multiple of 1/L, so
    L * chi_orb = (2 - 2g - k) L + sum L/alpha_i is an integer, and the
    least degree is d = L when it is even and d = 2L otherwise.
    Riemann-Hurwitz gives 2 - 2g' = d * chi_orb.  Each fiber lifts with
    degree 1, so the Euler number scales by the base degree, e' = d * e =
    -(b d + sum beta_i d/alpha_i) (Scott, "The geometries of 3-manifolds",
    Bull. London Math. Soc. 1983).  A piece with no exceptional fibers has
    L = 1 and is its own degree-1 cover.  The arithmetic is in integers
    only; `verify_finite_cover` re-derives it with the `Fraction` helpers of
    `manifold`, so the producer and the verifier of a cover share no code.
    Kept on the value: both queries and the algebraic route ask for it.
    """
    fiber_lcm = lcm(*(alpha for alpha, _ in s.fibers))
    lcm_chi = ((2 - 2 * s.genus - len(s.fibers)) * fiber_lcm
               + sum(fiber_lcm // alpha for alpha, _ in s.fibers))
    if lcm_chi > 0:
        raise NormalizationError("spherical Seifert piece has no aspherical cover")
    degree, degree_chi = fiber_lcm, lcm_chi
    if degree_chi % 2:
        degree, degree_chi = 2 * degree, 2 * degree_chi
    euler = -(s.obstruction * degree
              + sum(beta * (degree // alpha) for alpha, beta in s.fibers))
    status = "existence-backed" if s.fibers else "explicit"
    return 1 - degree_chi // 2, degree, euler, status


# ---------------------------------------------------------------------------
# The two domination kinds and their three decision routes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Kind:
    """Everything in which domination by products (Thm 1.1) and by
    non-trivial circle bundles (Thm 1.2) differ; the routes are shared."""

    name: str                   # "product" or "bundle"
    euler_nonzero: bool         # whether a dominated Seifert piece has e != 0
    geometries: tuple[Geometry, Geometry]   # clause (1) of Thm 5.1 / 5.2
    topological: str            # theorem label of each route
    geometric: str
    algebraic: str
    not_prime: str              # explanations of the topological route
    covered: str
    wrong_euler: tuple[str, str]                    # (clause, explanation)
    hyperbolic_or_sol: Optional[tuple[str, str]]    # products only (Sec 1)
    not_seifert: str
    shape_yes: str              # str.format templates of the algebraic route
    shape_no: str
    inessential: str            # ... and of the public query
    finite_cover: str
    schema: Callable[[int], BranchedCoverSchema]


# The schema builders are looked up when called, so that a module attribute
# replaced at run time (by a test or a tracer) takes effect.
_PRODUCT = _Kind(
    name="product",
    euler_nonzero=False,
    geometries=(Geometry.E3, Geometry.H2xR),
    topological="Thm1.1", geometric="Thm5.1", algebraic="Thm5.3",
    not_prime="a dominated essential manifold has a non-trivial central "
              "element, hence is freely indecomposable; this sum is not prime",
    covered="finitely covered by a product F x S^1",
    wrong_euler=("Lem3.2", "every map from a product to a circle bundle with "
                           "non-zero Euler number has degree zero"),
    hyperbolic_or_sol=("Sec1", "manifolds dominated by products cannot have "
                               "hyperbolic or Sol geometry"),
    not_seifert="aspherical but not Seifert fibered: no finite product cover "
                "exists",
    shape_yes="pi_1 is virtually (genus-{genus} surface group) x Z",
    shape_no="pi_1 is neither virtually free nor virtually F x Z",
    inessential="is the branched double quotient of Sigma_{n} x S^1",
    finite_cover="Sigma_{genus} x S^1",
    schema=lambda n: product_branched_cover_schema(n),
)

_BUNDLE = _Kind(
    name="bundle",
    euler_nonzero=True,
    geometries=(Geometry.Nil, Geometry.SL2Rtilde),
    topological="Thm1.2", geometric="Thm5.2", algebraic="Thm5.4",
    not_prime="a dominated essential manifold is prime; this sum is not",
    covered="finitely covered by a non-trivial circle bundle",
    wrong_euler=("Prop3.3", "an essential target of bundle domination must "
                            "itself have non-zero Euler number"),
    hyperbolic_or_sol=None,
    not_seifert="aspherical but not Seifert fibered: no circle-bundle cover "
                "exists",
    shape_yes="finite-index central extension of a genus-{genus} surface "
              "group with Euler class {euler} != 0",
    shape_no="pi_1 is neither virtually free nor a suitable central extension",
    inessential="is branched-doubly covered by a non-trivial circle bundle",
    finite_cover="the circle bundle over Sigma_{genus} with Euler number "
                 "{euler}",
    schema=lambda n: bundle_branched_cover_schema(n),
)

_KINDS = (_PRODUCT, _BUNDLE)


def _topological(m: Manifold, k: _Kind) -> tuple[bool, str, str]:
    if not is_rationally_essential(m):
        return (True, f"{k.topological}(2)",
                "finitely covered by a connected sum #_n(S^2xS^1)")
    p = _prime_piece(m)
    if p is None:
        return False, "Prop3.1", k.not_prime
    if isinstance(p, SeifertData):
        if (euler_number(p) != 0) == k.euler_nonzero:
            return True, f"{k.topological}(1)", k.covered
        return (False, *k.wrong_euler)
    if k.hyperbolic_or_sol is not None and isinstance(p, (Hyperbolic, Sol)):
        return (False, *k.hyperbolic_or_sol)
    return False, f"{k.topological}(1)", k.not_seifert


def _geometric(m: Manifold, k: _Kind) -> tuple[bool, str, str]:
    geometries = [(classify_geometry(p), c) for p, c in m.counts]
    if all(g in (Geometry.S2xR, Geometry.S3geom) for g, _ in geometries):
        return (True, f"{k.geometric}(2)",
                "connected sum of S^2xR- and S^3-geometry pieces")
    if (len(geometries) == 1 and geometries[0][1] == 1
            and geometries[0][0] in k.geometries):
        return True, f"{k.geometric}(1)", f"geometry {geometries[0][0].value}"
    pieces = [g.value + f" x {c}" * (c > 1) for g, c in geometries]
    return False, k.geometric, f"geometries {pieces} match neither clause"


def _algebraic(m: Manifold, k: _Kind) -> tuple[bool, str, str]:
    """Rationally inessential: virtually free.  One Seifert piece: virtually
    F x Z when e = 0, else a central extension with Euler class d * e != 0;
    genus and d * e come from the cover arithmetic, never `euler_number`."""
    if not is_rationally_essential(m):
        rank = free_cover_rank(free_product_data(m)).rank
        return True, f"{k.algebraic}(2)", f"pi_1 is virtually free of rank {rank}"
    s = _prime_piece(m)
    if isinstance(s, SeifertData):
        genus, _, euler, _ = seifert_cover_parameters(s)
        if (euler != 0) == k.euler_nonzero:
            return (True, f"{k.algebraic}(1)",
                    k.shape_yes.format(genus=genus, euler=euler))
    return False, k.algebraic, k.shape_no


# ---------------------------------------------------------------------------
# Public queries
# ---------------------------------------------------------------------------

def _dominated(m: Manifold, k: _Kind) -> Decision:
    verdict, clause, explanation = _topological(m, k)
    if not verdict:
        return Decision(False, clause, None, explanation)
    s = _prime_piece(m)
    if isinstance(s, SeifertData):
        genus, degree, euler, status = seifert_cover_parameters(s)
        geom = classify_geometry(s)
        return Decision(
            True, f"{k.geometric}(1)",
            FiniteCoverWitness(k.name, genus, euler, degree, status),
            f"geometry {geom.value}: finitely covered (degree {degree}, "
            f"{status}) by {k.finite_cover.format(genus=genus, euler=euler)}")
    n, degree = free_cover_rank(free_product_data(m))
    return Decision(
        True, clause, InessentialWitness(n, degree, k.schema(n)),
        f"rationally inessential: covered with degree {degree} by "
        f"#_{n}(S^2xS^1), which {k.inessential.format(n=n)}")


def dominated_by_product(m: Manifold) -> Decision:
    """Is m dominated by a product Sigma x S^1?"""
    return _dominated(m, _PRODUCT)


def dominated_by_nontrivial_circle_bundle(m: Manifold) -> Decision:
    """Is m dominated by a non-trivial circle bundle over a surface?"""
    return _dominated(m, _BUNDLE)


def dominated_by_any_circle_bundle(m: Manifold) -> Decision:
    """Is m dominated by a circle bundle (trivial or not)?

    For rationally essential manifolds this holds exactly when m is a single
    Seifert piece; for inessential ones it always holds.  On every input the
    verdict equals the disjunction of the two previous queries.
    """
    product = dominated_by_product(m)
    bundle = dominated_by_nontrivial_circle_bundle(m)
    if product.verdict or bundle.verdict:
        primary = product if product.verdict else bundle
        return Decision(True, "Cor7.2", primary.witness,
                        f"dominated by a circle bundle ({primary.clause}: "
                        f"{primary.explanation})")
    return Decision(False, "Cor7.2", None,
                    "rationally essential but not Seifert fibered "
                    f"({product.clause}; {bundle.clause})")


def presentable_by_products(m: Manifold) -> Decision:
    """Is pi_1(m) presentable by a product?  Defined for infinite groups only."""
    p = _prime_piece(m)
    if not m.counts or isinstance(p, Spherical):
        raise FinitePi1Error(
            f"pi_1({describe(m)}) is finite; presentability by products is "
            "defined for infinite groups only")
    if p is not None:
        if isinstance(p, SeifertData):
            return Decision(True, "Thm6.1", None,
                            "Seifert manifold: pi_1 has a finite-index "
                            "subgroup with infinite center")
        if isinstance(p, S2xS1):
            return Decision(True, "Thm6.1", None,
                            "pi_1 = Z is its own infinite center")
        return Decision(False, "Thm6.1", None,
                        "freely indecomposable but not Seifert fibered")
    if m.counts == ((Spherical(2), 2),):
        return Decision(True, "Sec6(Z2*Z2)", None,
                        "pi_1 = Z_2 * Z_2 is virtually Z, the only "
                        "non-trivial free product presentable by a product")
    return Decision(False, "Sec6", None,
                    "non-trivial free product other than Z_2 * Z_2")


# ---------------------------------------------------------------------------
# Cross-checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathVerdicts:
    topological: bool
    geometric: bool
    algebraic: bool

    @property
    def consistent(self) -> bool:
        return self.topological == self.geometric == self.algebraic


@dataclass(frozen=True)
class ConsistencyReport:
    manifold: Manifold
    product: PathVerdicts
    bundle: PathVerdicts
    traces: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return self.product.consistent and self.bundle.consistent


_ROUTES = (("topological", _topological), ("geometric", _geometric),
           ("algebraic", _algebraic))


def cross_check(m: Manifold) -> ConsistencyReport:
    """Evaluate both domination queries along all three routes."""
    traces = []
    verdicts = {}
    for k in _KINDS:
        routes = {}
        for name, route in _ROUTES:
            verdict, clause, explanation = route(m, k)
            routes[name] = verdict
            traces.append(f"{k.name}/{name}: {verdict} [{clause}] {explanation}")
        verdicts[k.name] = PathVerdicts(**routes)
    return ConsistencyReport(manifold=m, traces=tuple(traces), **verdicts)


# ---------------------------------------------------------------------------
# Exhaustive sweep
# ---------------------------------------------------------------------------

def sweep_inputs() -> Iterator[Manifold]:
    """The exhaustive cross-check family.

    All normalized single Seifert pieces with genus <= 2, |b| <= 3,
    alpha_i <= 5 and at most 3 exceptional fibers, plus all connected sums of
    at most 3 pieces drawn from S2xS1, Spherical(q <= 8), the opaque
    aspherical markers, and one Seifert sample per Seifert geometry.
    Seifert data that `Manifold` rejects (spherical space forms) is skipped.
    """
    pairs = [(a, b) for a in range(2, 6) for b in range(1, a) if gcd(a, b) == 1]
    for genus in range(3):
        for obstruction in range(-3, 4):
            for count in range(4):
                for fibers in itertools.combinations_with_replacement(pairs, count):
                    piece = SeifertData(genus, obstruction, fibers)
                    try:
                        yield Manifold(((piece, 1),))
                    except NormalizationError:
                        continue

    sfs_samples = [
        SeifertData(1, 0),                                      # E3
        SeifertData(2, 0),                                      # H2xR
        SeifertData(1, -1),                                     # Nil
        SeifertData(2, 1),                                      # SL2Rtilde
        SeifertData(0, 1, ((2, 1), (3, 1), (7, 1))),            # SL2Rtilde
    ]
    pool = ([S2xS1()] + [Spherical(q) for q in range(2, 9)]
            + [Hyperbolic(), Sol(), OtherAspherical()] + sfs_samples)
    for count in range(4):
        for combo in itertools.combinations_with_replacement(range(len(pool)), count):
            yield Manifold((pool[i], 1) for i in combo)


def cross_check_sweep() -> tuple[int, list[ConsistencyReport]]:
    """Run cross_check over the sweep; returns (input count, discrepancies)."""
    inputs = dict.fromkeys(sweep_inputs())
    reports = map(cross_check, inputs)
    return len(inputs), [r for r in reports if not r.consistent]
