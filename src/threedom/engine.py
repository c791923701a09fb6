"""Classification queries for domination by products and circle bundles.

Each domination query is decided along three routes that must agree:

* topological - finite-cover criteria (rationally inessential manifolds are
  finitely covered by #_n(S^2 x S^1); essential ones must be a single Seifert
  piece with the right Euler number);
* geometric   - dispatch on the Thurston geometry of the pieces;
* algebraic   - the shape of the fundamental group (virtually a surface group
  times Z, virtually free, or a central extension with non-zero Euler class).

`cross_check` evaluates all three independently; a discrepancy is an
implementation bug by construction, never a property of the input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterator, Optional, Union

from .groups import FreeProductData, free_cover_rank
from .manifold import (
    Geometry,
    Hyperbolic,
    Manifold,
    NormalizationError,
    OtherAspherical,
    S2xS1,
    SeifertData,
    SeifertFibered,
    Sol,
    Spherical,
    classify_geometry,
    describe,
    euler_number,
    is_rationally_essential,
    normalize_manifold,
    orbifold_euler_characteristic,
)
from .witness import (
    BranchedCoverSchema,
    FiniteCoverWitness,
    bundle_branched_cover_schema,
    product_branched_cover_schema,
)


class FinitePi1Error(ValueError):
    """Presentability by products is defined for infinite groups only."""


# ---------------------------------------------------------------------------
# Decisions and witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InessentialWitness:
    """Cover by #_n(S^2 x S^1) plus the branched-cover schema dominating it."""

    free_rank: int
    cover_degree: int
    schema: BranchedCoverSchema


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

def free_product_data(m: Manifold) -> FreeProductData:
    """pi_1 of a rationally inessential manifold, as free-product data."""
    if is_rationally_essential(m):
        raise ValueError("manifold is rationally essential")
    l = sum(1 for p in m.pieces if isinstance(p, S2xS1))
    orders = tuple(p.order for p in m.pieces if isinstance(p, Spherical))
    return FreeProductData(l, orders)


def _single_seifert(m: Manifold) -> Optional[SeifertData]:
    if len(m.pieces) == 1 and isinstance(m.pieces[0], SeifertFibered):
        return m.pieces[0].data
    return None


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
    covers of degree L.  Every 1/alpha_i is a multiple of 1/L, so L * chi_orb
    is an integer and the least degree is d = L when it is even and d = 2L
    otherwise.  Riemann-Hurwitz gives 2 - 2g' = d * chi_orb.  Each fiber
    lifts with degree 1, so the Euler number scales by the base degree,
    e' = d * e (Scott, "The geometries of 3-manifolds", Bull. London Math.
    Soc. 1983).  A piece with no exceptional fibers has L = 1 and is its own
    degree-1 cover.
    """
    chi = orbifold_euler_characteristic(s)
    if chi > 0:
        raise NormalizationError("spherical Seifert piece has no aspherical cover")
    degree = lcm(*(alpha for alpha, _ in s.fibers))
    if (degree * chi).numerator % 2:
        degree *= 2
    genus = 1 - int(degree * chi) // 2
    status = "existence-backed" if s.fibers else "explicit"
    return genus, degree, int(degree * euler_number(s)), status


def _inessential_witness(m: Manifold, kind: str) -> InessentialWitness:
    cover = free_cover_rank(free_product_data(m))
    if kind == "product":
        schema = product_branched_cover_schema(cover.rank)
    else:
        schema = bundle_branched_cover_schema(cover.rank)
    return InessentialWitness(cover.rank, cover.degree, schema)


# ---------------------------------------------------------------------------
# The three decision routes (both domination queries)
# ---------------------------------------------------------------------------

def product_paths(m: Manifold) -> dict[str, bool]:
    """Domination by a product, decided three independent ways."""
    return {
        "topological": _product_topological(m)[0],
        "geometric": _product_geometric(m)[0],
        "algebraic": _product_algebraic(m)[0],
    }


def bundle_paths(m: Manifold) -> dict[str, bool]:
    """Domination by a non-trivial circle bundle, three independent ways."""
    return {
        "topological": _bundle_topological(m)[0],
        "geometric": _bundle_geometric(m)[0],
        "algebraic": _bundle_algebraic(m)[0],
    }


def _product_topological(m: Manifold) -> tuple[bool, str, str]:
    if not is_rationally_essential(m):
        return True, "Thm1.1(2)", "finitely covered by a connected sum #_n(S^2xS^1)"
    if len(m.pieces) > 1:
        return (False, "Prop3.1",
                "a dominated essential manifold has a non-trivial central "
                "element, hence is freely indecomposable; this sum is not prime")
    p = m.pieces[0]
    if isinstance(p, SeifertFibered):
        if euler_number(p.data) == 0:
            return True, "Thm1.1(1)", "finitely covered by a product F x S^1"
        return (False, "Lem3.2",
                "every map from a product to a circle bundle with non-zero "
                "Euler number has degree zero")
    if isinstance(p, (Hyperbolic, Sol)):
        return (False, "Sec1",
                "manifolds dominated by products cannot have hyperbolic or "
                "Sol geometry")
    return (False, "Thm1.1(1)",
            "aspherical but not Seifert fibered: no finite product cover exists")


def _product_geometric(m: Manifold) -> tuple[bool, str, str]:
    geometries = [classify_geometry(p) for p in m.pieces]
    if all(g in (Geometry.S2xR, Geometry.S3geom) for g in geometries):
        return True, "Thm5.1(2)", "connected sum of S^2xR- and S^3-geometry pieces"
    if len(geometries) == 1 and geometries[0] in (Geometry.E3, Geometry.H2xR):
        return True, "Thm5.1(1)", f"geometry {geometries[0].value}"
    return (False, "Thm5.1",
            f"geometries {[g.value for g in geometries]} match neither clause")


def _product_algebraic(m: Manifold) -> tuple[bool, str, str]:
    char = algebraic_characterization(m)
    if isinstance(char, VirtuallyFree):
        return True, "Thm5.3(2)", f"pi_1 is virtually free of rank {char.rank}"
    if isinstance(char, VirtuallyProductFxZ):
        return (True, "Thm5.3(1)",
                f"pi_1 is virtually (genus-{char.genus} surface group) x Z")
    return False, "Thm5.3", "pi_1 is neither virtually free nor virtually F x Z"


def _bundle_topological(m: Manifold) -> tuple[bool, str, str]:
    if not is_rationally_essential(m):
        return True, "Thm1.2(2)", "finitely covered by a connected sum #_n(S^2xS^1)"
    if len(m.pieces) > 1:
        return (False, "Prop3.1",
                "a dominated essential manifold is prime; this sum is not")
    p = m.pieces[0]
    if isinstance(p, SeifertFibered):
        if euler_number(p.data) != 0:
            return (True, "Thm1.2(1)",
                    "finitely covered by a non-trivial circle bundle")
        return (False, "Prop3.3",
                "an essential target of bundle domination must itself have "
                "non-zero Euler number")
    return (False, "Thm1.2(1)",
            "aspherical but not Seifert fibered: no circle-bundle cover exists")


def _bundle_geometric(m: Manifold) -> tuple[bool, str, str]:
    geometries = [classify_geometry(p) for p in m.pieces]
    if all(g in (Geometry.S2xR, Geometry.S3geom) for g in geometries):
        return True, "Thm5.2(2)", "connected sum of S^2xR- and S^3-geometry pieces"
    if len(geometries) == 1 and geometries[0] in (Geometry.Nil, Geometry.SL2Rtilde):
        return True, "Thm5.2(1)", f"geometry {geometries[0].value}"
    return (False, "Thm5.2",
            f"geometries {[g.value for g in geometries]} match neither clause")


def _bundle_algebraic(m: Manifold) -> tuple[bool, str, str]:
    char = algebraic_characterization(m)
    if isinstance(char, VirtuallyFree):
        return True, "Thm5.4(2)", f"pi_1 is virtually free of rank {char.rank}"
    if isinstance(char, CentralExtension):
        return (True, "Thm5.4(1)",
                f"finite-index central extension of a genus-{char.data.base_genus} "
                f"surface group with Euler class {char.data.euler_class} != 0")
    return (False, "Thm5.4",
            "pi_1 is neither virtually free nor a suitable central extension")


# ---------------------------------------------------------------------------
# Algebraic characterization (Thm 5.3 / 5.4 data)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VirtuallyProductFxZ:
    genus: int
    degree: int


@dataclass(frozen=True)
class VirtuallyFree:
    rank: int


@dataclass(frozen=True)
class CentralExtensionData:
    base_genus: int
    euler_class: int

    def __post_init__(self):
        if self.base_genus < 1:
            raise ValueError("central-extension base must be aspherical (genus >= 1)")


@dataclass(frozen=True)
class CentralExtension:
    data: CentralExtensionData


AlgebraicShape = Union[VirtuallyProductFxZ, VirtuallyFree, CentralExtension, None]


def algebraic_characterization(m: Manifold) -> AlgebraicShape:
    """Shape of pi_1 relevant to domination, or None.

    Rationally inessential manifolds have virtually free groups (free kernel
    rank from the closed formula).  A single Seifert piece is virtually
    F x Z when its Euler number vanishes, and otherwise a finite-index central
    extension with non-zero Euler class; the reported base genus and scaled
    Euler class come from the same existence-backed cover arithmetic that the
    witnesses use.
    """
    if not is_rationally_essential(m):
        return VirtuallyFree(free_cover_rank(free_product_data(m)).rank)
    s = _single_seifert(m)
    if s is None:
        return None
    genus, degree, euler, _ = seifert_cover_parameters(s)
    if euler_number(s) == 0:
        return VirtuallyProductFxZ(genus, degree)
    return CentralExtension(CentralExtensionData(genus, euler))


# ---------------------------------------------------------------------------
# Public queries
# ---------------------------------------------------------------------------

def dominated_by_product(m: Manifold) -> Decision:
    """Is m dominated by a product Sigma x S^1?"""
    if not is_rationally_essential(m):
        witness = _inessential_witness(m, "product")
        return Decision(
            True, "Thm1.1(2)", witness,
            f"rationally inessential: covered with degree "
            f"{witness.cover_degree} by #_{witness.free_rank}(S^2xS^1), which "
            f"is the branched double quotient of Sigma_{witness.free_rank} x S^1")
    s = _single_seifert(m)
    if s is not None and euler_number(s) == 0:
        genus, degree, _, status = seifert_cover_parameters(s)
        geom = classify_geometry(m.pieces[0])
        return Decision(
            True, "Thm5.1(1)",
            FiniteCoverWitness("product", genus, 0, degree, status),
            f"geometry {geom.value}: finitely covered (degree {degree}, "
            f"{status}) by Sigma_{genus} x S^1")
    verdict, clause, explanation = _product_topological(m)
    return Decision(verdict, clause, None, explanation)


def dominated_by_nontrivial_circle_bundle(m: Manifold) -> Decision:
    """Is m dominated by a non-trivial circle bundle over a surface?"""
    if not is_rationally_essential(m):
        witness = _inessential_witness(m, "bundle")
        return Decision(
            True, "Thm1.2(2)", witness,
            f"rationally inessential: covered with degree "
            f"{witness.cover_degree} by #_{witness.free_rank}(S^2xS^1), which "
            f"is branched-doubly covered by a non-trivial circle bundle")
    s = _single_seifert(m)
    if s is not None and euler_number(s) != 0:
        genus, degree, euler, status = seifert_cover_parameters(s)
        geom = classify_geometry(m.pieces[0])
        return Decision(
            True, "Thm5.2(1)",
            FiniteCoverWitness("bundle", genus, euler, degree, status),
            f"geometry {geom.value}: finitely covered (degree {degree}, "
            f"{status}) by the circle bundle over Sigma_{genus} with Euler "
            f"number {euler}")
    verdict, clause, explanation = _bundle_topological(m)
    return Decision(verdict, clause, None, explanation)


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
    if not m.pieces or (len(m.pieces) == 1 and isinstance(m.pieces[0], Spherical)):
        raise FinitePi1Error(
            f"pi_1({describe(m)}) is finite; presentability by products is "
            "defined for infinite groups only")
    if len(m.pieces) == 1:
        p = m.pieces[0]
        if isinstance(p, SeifertFibered):
            return Decision(True, "Thm6.1", None,
                            "Seifert manifold: pi_1 has a finite-index "
                            "subgroup with infinite center")
        if isinstance(p, S2xS1):
            return Decision(True, "Thm6.1", None,
                            "pi_1 = Z is its own infinite center")
        return Decision(False, "Thm6.1", None,
                        "freely indecomposable but not Seifert fibered")
    if m.pieces == (Spherical(2), Spherical(2)):
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


def cross_check(m: Manifold) -> ConsistencyReport:
    """Evaluate both domination queries along all three routes."""
    traces = []
    product_verdicts = {}
    bundle_verdicts = {}
    for name, fn in (("topological", _product_topological),
                     ("geometric", _product_geometric),
                     ("algebraic", _product_algebraic)):
        verdict, clause, explanation = fn(m)
        product_verdicts[name] = verdict
        traces.append(f"product/{name}: {verdict} [{clause}] {explanation}")
    for name, fn in (("topological", _bundle_topological),
                     ("geometric", _bundle_geometric),
                     ("algebraic", _bundle_algebraic)):
        verdict, clause, explanation = fn(m)
        bundle_verdicts[name] = verdict
        traces.append(f"bundle/{name}: {verdict} [{clause}] {explanation}")
    return ConsistencyReport(
        manifold=m,
        product=PathVerdicts(**product_verdicts),
        bundle=PathVerdicts(**bundle_verdicts),
        traces=tuple(traces),
    )


# ---------------------------------------------------------------------------
# Exhaustive sweep
# ---------------------------------------------------------------------------

def sweep_inputs() -> Iterator[Manifold]:
    """The exhaustive cross-check family.

    All normalized single Seifert pieces with genus <= 2, |b| <= 3,
    alpha_i <= 5 and at most 3 exceptional fibers, plus all connected sums of
    at most 3 pieces drawn from S2xS1, Spherical(q <= 8), the opaque
    aspherical markers, and one Seifert sample per Seifert geometry.
    Inputs rejected by normalization (spherical space forms) are skipped.
    """
    pairs = [(a, b) for a in range(2, 6) for b in range(1, a) if gcd(a, b) == 1]
    for genus in range(3):
        for obstruction in range(-3, 4):
            for count in range(4):
                for fibers in itertools.combinations_with_replacement(pairs, count):
                    piece = SeifertFibered(SeifertData(genus, obstruction, fibers))
                    try:
                        yield normalize_manifold(Manifold((piece,)))
                    except NormalizationError:
                        continue

    sfs_samples = [
        SeifertFibered(SeifertData(1, 0)),                      # E3
        SeifertFibered(SeifertData(2, 0)),                      # H2xR
        SeifertFibered(SeifertData(1, -1)),                     # Nil
        SeifertFibered(SeifertData(2, 1)),                      # SL2Rtilde
        SeifertFibered(SeifertData(0, 1, ((2, 1), (3, 1), (7, 1)))),  # SL2Rtilde
    ]
    pool = ([S2xS1()] + [Spherical(q) for q in range(2, 9)]
            + [Hyperbolic(), Sol(), OtherAspherical()] + sfs_samples)
    for count in range(4):
        for combo in itertools.combinations_with_replacement(range(len(pool)), count):
            yield normalize_manifold(Manifold(tuple(pool[i] for i in combo)))


def cross_check_sweep() -> tuple[int, list[ConsistencyReport]]:
    """Run cross_check over the sweep; returns (input count, discrepancies)."""
    seen = set()
    discrepancies = []
    count = 0
    for m in sweep_inputs():
        if m in seen:
            continue
        seen.add(m)
        count += 1
        report = cross_check(m)
        if not report.consistent:
            discrepancies.append(report)
    return count, discrepancies
