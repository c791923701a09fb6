"""Machine-checkable certificates for domination verdicts.

Two kinds of certificate back a YES answer:

* `FiniteCoverWitness` - a finite cover of the manifold by a product F x S^1
  or by a circle bundle; for Seifert pieces these are existence-backed (the
  arithmetic of the cover is recorded, the covering map itself is classical
  and not constructed), and `verify_finite_cover` re-derives that arithmetic
  from the piece's Seifert invariants.

* `BranchedCoverSchema` - the degree-2 branched covers that dominate the
  connected sums #_n(S^2 x S^1): the pillowcase times the circle for n = 1,
  its double for n = 2, fiber products with unramified covers for n >= 3, and
  the parallel circle-bundle constructions built from the mapping torus of
  [[1,1],[0,1]] with the -identity involution.

Schemas are symbolic: each records exactly the arithmetic the construction
determines (Riemann-Hurwitz slice data, monodromy matrices, Euler-number
fiber sums, unramified-stage characteristics, generator images in the target
free group), and `verify_schema` re-derives every identity from scratch.
The target #_n(S^2 x S^1) is held as one piece with multiplicity n, so
building a schema and rendering its target do no Python work per summand.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .groups import nielsen_schreier_rank, stallings_fold
from .manifold import (
    Manifold,
    S2xS1,
    SeifertData,
    describe,
    euler_number,
    format_rational,
    orbifold_euler_characteristic,
    parse_manifold,
)


# ---------------------------------------------------------------------------
# Certificate records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceCheck:
    """A 2-dimensional branched-cover slice, for Riemann-Hurwitz verification."""

    chi_source: int
    chi_target: int
    degree: int
    local_degrees: tuple[int, ...]


@dataclass(frozen=True)
class MonodromyData:
    """Mapping-torus monodromy and the commuting hyperelliptic involution."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    involution: tuple[tuple[int, int], tuple[int, int]] = ((-1, 0), (0, -1))


@dataclass(frozen=True)
class FiberSumRecord:
    """Circle-bundle fiber sum: Euler numbers of the parts and the claimed total."""

    parts: tuple[int, ...]
    total: int


@dataclass(frozen=True)
class UnramifiedStage:
    """An unramified covering stage, checked by chi multiplicativity."""

    degree: int
    chi_cover: int
    chi_base: int


@dataclass(frozen=True)
class PullbackRecord:
    """A bundle pulled back along a base map; degrees agree, Euler scales."""

    base_degree: int
    total_degree: int
    euler_base: int
    euler_pulled: int


@dataclass(frozen=True)
class BranchedCoverSchema:
    source_kind: str            # "product" or "bundle"
    source_genus: int           # genus of the surface (base or product factor)
    source_euler: int           # Euler number of the source bundle; 0 for products
    target: Manifold
    degree: int
    branch_components: Optional[int]   # branch circles in the target, when known
    local_degrees: tuple[int, ...]     # branching indices, all 2 here
    pi1_rank: int               # rank of the free group pi_1(target)
    pi1_data: Optional[tuple[str, ...]] = None
    slice_check: Optional[SliceCheck] = None
    monodromy: Optional[MonodromyData] = None
    fiber_sum: Optional[FiberSumRecord] = None
    unramified_stage: Optional[UnramifiedStage] = None
    pullback: Optional[PullbackRecord] = None
    note: str = ""

    @property
    def source(self) -> str:
        if self.source_kind == "product":
            return f"Sigma_{self.source_genus} x S1"
        return (f"circle bundle over Sigma_{self.source_genus} "
                f"with Euler number {self.source_euler}")


@dataclass(frozen=True)
class FiniteCoverWitness:
    """A finite cover by a product F x S^1 or by a circle bundle."""

    kind: str                   # "product" or "bundle"
    base_genus: int
    euler: int                  # 0 for products, non-zero for bundles
    degree: int
    construction_status: str    # "explicit" | "existence-backed"

    def __post_init__(self):
        if self.kind not in ("product", "bundle"):
            raise ValueError(f"unknown cover kind {self.kind!r}")
        if self.kind == "product" and self.euler != 0:
            raise ValueError("product witnesses have Euler number 0 by definition")
        if self.kind == "bundle" and self.euler == 0:
            raise ValueError("bundle witnesses must have non-zero Euler number")
        if self.degree < 1:
            raise ValueError("cover degree must be >= 1")

    @property
    def cover(self) -> str:
        if self.kind == "product":
            return f"Sigma_{self.base_genus} x S1"
        return (f"circle bundle over Sigma_{self.base_genus} "
                f"with Euler number {self.euler}")


# ---------------------------------------------------------------------------
# Schema constructors
# ---------------------------------------------------------------------------

def _sum_of_s2xs1(n: int) -> Manifold:
    return Manifold.from_counts(((S2xS1(), n),))


def pillowcase_schema() -> BranchedCoverSchema:
    """The degree-2 branched cover T^2 -> S^2 with four branch points."""
    return BranchedCoverSchema(
        source_kind="product",
        source_genus=1,
        source_euler=0,
        target=Manifold(()),
        degree=2,
        branch_components=4,
        local_degrees=(2, 2, 2, 2),
        pi1_rank=0,
        pi1_data=(),
        slice_check=SliceCheck(chi_source=0, chi_target=2, degree=2,
                               local_degrees=(2, 2, 2, 2)),
        note="2-dimensional base schema: quotient of T^2 by the "
             "hyperelliptic involution",
    )


def product_branched_cover_schema(n: int) -> BranchedCoverSchema:
    """Branched double cover Sigma_n x S^1 -> #_n(S^2 x S^1).

    n = 1 is the pillowcase times the circle; n = 2 is its double along a
    ball containing two branch circles; n >= 3 is the fiber product with the
    (n-1)-sheeted unramified cover of the n = 2 target, recorded as an
    unramified stage with undetermined branch-circle count.  n = 0 covers
    S^3 with source genus 0 (the two-branch-circle double cover convention).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    target = _sum_of_s2xs1(n)
    if n == 0:
        return BranchedCoverSchema(
            source_kind="product", source_genus=0, source_euler=0,
            target=target, degree=2,
            branch_components=2, local_degrees=(2, 2),
            pi1_rank=0, pi1_data=(),
            slice_check=SliceCheck(2, 2, 2, (2, 2)),
            note="degenerate case: S^2 x S^1 doubly covers S^3 branched over "
                 "a 2-component unlink; pi_1(S^3) is trivial",
        )
    if n == 1:
        return BranchedCoverSchema(
            source_kind="product", source_genus=1, source_euler=0,
            target=target, degree=2,
            branch_components=4, local_degrees=(2,) * 4,
            pi1_rank=1, pi1_data=("a",),
            slice_check=SliceCheck(0, 2, 2, (2, 2, 2, 2)),
            note="pillowcase times the circle",
        )
    if n == 2:
        branch = arc_gluing_oracle(2, 2)
        return BranchedCoverSchema(
            source_kind="product", source_genus=2, source_euler=0,
            target=target, degree=2,
            branch_components=branch, local_degrees=(2,) * branch,
            pi1_rank=2, pi1_data=("a", "b"),
            slice_check=SliceCheck(-2, 2, 2, (2,) * branch),
            note="double of the pillowcase cover cut along a ball containing "
                 "two branch circles; generator images hardcoded from the "
                 "construction and certified by folding",
        )
    return BranchedCoverSchema(
        source_kind="product", source_genus=n, source_euler=0,
        target=target, degree=2,
        branch_components=None, local_degrees=(),
        pi1_rank=n, pi1_data=None,
        unramified_stage=UnramifiedStage(degree=n - 1,
                                         chi_cover=2 - 2 * n, chi_base=-2),
        note="fiber product of the n=2 cover with the (n-1)-sheeted "
             "unramified cover; branch-circle count undetermined",
    )


def bundle_branched_cover_schema(n: int) -> BranchedCoverSchema:
    """Branched double cover of #_n(S^2 x S^1) by a non-trivial circle bundle.

    n = 0: the Hopf bundle pulled back along a branched double cover of S^2,
    giving Euler number 2 over S^2.  n = 1: the mapping torus of [[1,1],[0,1]]
    quotiented by the -identity involution; the source is the Euler-number-1
    bundle over T^2.  n >= 2: fiber sum of n copies, Euler number n over
    Sigma_n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    target = _sum_of_s2xs1(n)
    if n == 0:
        return BranchedCoverSchema(
            source_kind="bundle", source_genus=0, source_euler=2,
            target=target, degree=2,
            branch_components=2, local_degrees=(2, 2),
            pi1_rank=0, pi1_data=(),
            slice_check=SliceCheck(2, 2, 2, (2, 2)),
            pullback=PullbackRecord(base_degree=2, total_degree=2,
                                    euler_base=1, euler_pulled=2),
            note="Hopf fibration pulled back along a branched double cover "
                 "of S^2; Euler number doubles under the degree-2 base map",
        )
    if n == 1:
        return BranchedCoverSchema(
            source_kind="bundle", source_genus=1, source_euler=1,
            target=target, degree=2,
            branch_components=None, local_degrees=(),
            pi1_rank=1, pi1_data=("a",),
            slice_check=SliceCheck(0, 2, 2, (2, 2, 2, 2)),
            monodromy=MonodromyData(matrix=((1, 1), (0, 1))),
            note="mapping torus of [[1,1],[0,1]] modulo the fiberwise "
                 "-identity involution; on every fiber the quotient is the "
                 "pillowcase",
        )
    return BranchedCoverSchema(
        source_kind="bundle", source_genus=n, source_euler=n,
        target=target, degree=2,
        branch_components=None, local_degrees=(),
        pi1_rank=2 if n == 2 else n,
        pi1_data=("a", "b") if n == 2 else None,
        fiber_sum=FiberSumRecord(parts=(1,) * n, total=n),
        note="fiber sum of n copies of the Euler-number-1 bundle over T^2, "
             "glued so the branched covering maps match up",
    )


# ---------------------------------------------------------------------------
# Branch-circle bookkeeping oracle
# ---------------------------------------------------------------------------

def arc_gluing_oracle(branch_points_in_disk: int, copies: int) -> int:
    """Count branch circles after cutting along a ball and doubling.

    The n=1 cover has four branch circles (four branch points times S^1).
    Removing a ball whose disk slice contains `branch_points_in_disk` branch
    points cuts that many circles into arcs; doubling glues matching arc
    endpoints across the two copies.  Only the construction's parameters
    (2, 2) and the degenerate control case (0, 2) are supported.
    """
    if copies != 2 or branch_points_in_disk not in (0, 2):
        raise ValueError(
            "unsupported parameters: the construction uses a disk with two "
            "branch points and exactly two copies")
    cut = branch_points_in_disk
    # Segments: per copy, circles 0..3; the first `cut` become arcs.
    segments = [(copy, i) for copy in range(copies) for i in range(4)]
    parent = {s: s for s in segments}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    # Gluing the boundary spheres matches arc i of copy 0 with arc i of
    # copy 1 at both endpoints; the two arcs close into one circle.
    for i in range(cut):
        union((0, i), (1, i))
    roots = {find(s) for s in segments}
    return len(roots)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def verify_schema(s: BranchedCoverSchema) -> VerificationReport:
    """Re-derive every identity a schema claims; failures are report entries."""
    checks: list[CheckResult] = []

    if s.slice_check is not None:
        sl = s.slice_check
        rhs = sl.degree * sl.chi_target - sum(d - 1 for d in sl.local_degrees)
        checks.append(CheckResult(
            "riemann_hurwitz", sl.chi_source == rhs,
            f"chi_source = {sl.chi_source}, degree*chi_target - sum(d-1) = {rhs}"))

    if s.branch_components is not None:
        checks.append(CheckResult(
            "local_degrees", (len(s.local_degrees) == s.branch_components
                              and all(d == 2 for d in s.local_degrees)),
            f"{len(s.local_degrees)} recorded local degrees "
            f"{s.local_degrees} for {s.branch_components} branch circles"))

    if s.monodromy is not None:
        (a, b), (c, d) = s.monodromy.matrix
        det = a * d - b * c
        checks.append(CheckResult(
            "monodromy_determinant", det == 1, f"det = {det}"))
        checks.append(CheckResult(
            "involution_is_minus_identity",
            s.monodromy.involution == ((-1, 0), (0, -1)),
            f"involution = {s.monodromy.involution}"))
        m, i = s.monodromy.matrix, s.monodromy.involution
        mi = _matmul(m, i)
        im = _matmul(i, m)
        checks.append(CheckResult(
            "monodromy_commutes", mi == im, f"M*I = {mi}, I*M = {im}"))

    if s.fiber_sum is not None:
        total = sum(s.fiber_sum.parts)
        checks.append(CheckResult(
            "fiber_sum_additivity",
            total == s.fiber_sum.total == s.source_euler,
            f"sum(parts) = {total}, recorded total = {s.fiber_sum.total}, "
            f"source Euler number = {s.source_euler}"))

    if s.pullback is not None:
        p = s.pullback
        checks.append(CheckResult(
            "pullback_degree", p.total_degree == p.base_degree,
            f"total-space degree {p.total_degree}, base degree {p.base_degree}"))
        checks.append(CheckResult(
            "pullback_euler",
            p.euler_pulled == p.base_degree * p.euler_base == s.source_euler,
            f"pulled-back Euler {p.euler_pulled}, base_degree*euler_base = "
            f"{p.base_degree * p.euler_base}"))

    if s.unramified_stage is not None:
        st = s.unramified_stage
        checks.append(CheckResult(
            "unramified_chi_multiplicativity",
            st.chi_cover == st.degree * st.chi_base,
            f"chi_cover = {st.chi_cover}, degree*chi_base = "
            f"{st.degree * st.chi_base}"))
        ns = nielsen_schreier_rank(2, st.degree)
        checks.append(CheckResult(
            "nielsen_schreier_rank",
            s.source_genus == ns and 2 - 2 * s.source_genus == st.chi_cover,
            f"source genus {s.source_genus}, 1 + degree*(2-1) = {ns}"))

    if s.pi1_data is not None:
        if s.pi1_rank == 0:
            checks.append(CheckResult(
                "pi1_surjective", len(s.pi1_data) == 0,
                "target group is trivial"))
        else:
            alphabet = [chr(ord("a") + i) for i in range(s.pi1_rank)]
            graph = stallings_fold(s.pi1_data, alphabet=alphabet)
            idx = graph.index()
            checks.append(CheckResult(
                "pi1_surjective", idx == 1,
                f"folded image of {s.pi1_data} has index "
                f"{'infinite' if idx is None else idx} in F_{s.pi1_rank}"))

    return VerificationReport(tuple(checks))


def verify_finite_cover(s: SeifertData, w: FiniteCoverWitness) -> VerificationReport:
    """Re-derive the arithmetic of a finite cover of the Seifert piece s.

    A cover by a circle bundle unwraps every exceptional fiber, so
    L = lcm(alpha_i) divides its degree d; its base has Euler characteristic
    2 - 2g' = d * chi_orb (Riemann-Hurwitz); its Euler number is d * e; and
    it is a product exactly when e = 0.
    """
    chi = orbifold_euler_characteristic(s)
    e = euler_number(s)
    fiber_lcm = lcm(*(alpha for alpha, _ in s.fibers))
    chi_cover = 2 - 2 * w.base_genus
    return VerificationReport((
        CheckResult(
            "lcm_divides_degree", w.degree % fiber_lcm == 0,
            f"lcm(alpha) = {fiber_lcm}, degree {w.degree}"),
        CheckResult(
            "riemann_hurwitz", chi_cover == w.degree * chi,
            f"2 - 2g' = {chi_cover}, degree*chi_orb = "
            f"{format_rational(w.degree * chi)}"),
        CheckResult(
            "euler_scaling", w.euler == w.degree * e,
            f"e' = {w.euler}, degree*e = {format_rational(w.degree * e)}"),
        CheckResult(
            "kind_matches_euler", (w.kind == "product") == (e == 0),
            f"{w.kind} cover, e = {format_rational(e)}"),
    ))


def _matmul(m, n):
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


# ---------------------------------------------------------------------------
# Serialization (schema files, JSON-compatible dicts)
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1


def schema_to_dict(s: BranchedCoverSchema) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "source": s.source,
        "source_kind": s.source_kind,
        "source_genus": s.source_genus,
        "source_euler": s.source_euler,
        "target": describe(s.target),
        "degree": s.degree,
        "branch_components": s.branch_components,
        "local_degrees": list(s.local_degrees),
        "pi1_rank": s.pi1_rank,
        "pi1_data": list(s.pi1_data) if s.pi1_data is not None else None,
        "slice_check": None if s.slice_check is None else {
            "chi_source": s.slice_check.chi_source,
            "chi_target": s.slice_check.chi_target,
            "degree": s.slice_check.degree,
            "local_degrees": list(s.slice_check.local_degrees),
        },
        "monodromy": None if s.monodromy is None else {
            "matrix": [list(r) for r in s.monodromy.matrix],
            "involution": [list(r) for r in s.monodromy.involution],
        },
        "fiber_sum": None if s.fiber_sum is None else {
            "parts": list(s.fiber_sum.parts),
            "total": s.fiber_sum.total,
        },
        "unramified_stage": None if s.unramified_stage is None else {
            "degree": s.unramified_stage.degree,
            "chi_cover": s.unramified_stage.chi_cover,
            "chi_base": s.unramified_stage.chi_base,
        },
        "pullback": None if s.pullback is None else {
            "base_degree": s.pullback.base_degree,
            "total_degree": s.pullback.total_degree,
            "euler_base": s.pullback.euler_base,
            "euler_pulled": s.pullback.euler_pulled,
        },
        "note": s.note,
    }


def schema_from_dict(d: dict) -> BranchedCoverSchema:
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")

    def row2(rows):
        return tuple(tuple(int(x) for x in r) for r in rows)

    return BranchedCoverSchema(
        source_kind=d["source_kind"],
        source_genus=int(d["source_genus"]),
        source_euler=int(d["source_euler"]),
        target=parse_manifold(d["target"]),
        degree=int(d["degree"]),
        branch_components=(None if d["branch_components"] is None
                           else int(d["branch_components"])),
        local_degrees=tuple(int(x) for x in d["local_degrees"]),
        pi1_rank=int(d["pi1_rank"]),
        pi1_data=(None if d["pi1_data"] is None
                  else tuple(str(w) for w in d["pi1_data"])),
        slice_check=None if d["slice_check"] is None else SliceCheck(
            chi_source=int(d["slice_check"]["chi_source"]),
            chi_target=int(d["slice_check"]["chi_target"]),
            degree=int(d["slice_check"]["degree"]),
            local_degrees=tuple(int(x) for x in d["slice_check"]["local_degrees"]),
        ),
        monodromy=None if d["monodromy"] is None else MonodromyData(
            matrix=row2(d["monodromy"]["matrix"]),
            involution=row2(d["monodromy"]["involution"]),
        ),
        fiber_sum=None if d["fiber_sum"] is None else FiberSumRecord(
            parts=tuple(int(x) for x in d["fiber_sum"]["parts"]),
            total=int(d["fiber_sum"]["total"]),
        ),
        unramified_stage=None if d["unramified_stage"] is None else UnramifiedStage(
            degree=int(d["unramified_stage"]["degree"]),
            chi_cover=int(d["unramified_stage"]["chi_cover"]),
            chi_base=int(d["unramified_stage"]["chi_base"]),
        ),
        pullback=None if d["pullback"] is None else PullbackRecord(
            base_degree=int(d["pullback"]["base_degree"]),
            total_degree=int(d["pullback"]["total_degree"]),
            euler_base=int(d["pullback"]["euler_base"]),
            euler_pulled=int(d["pullback"]["euler_pulled"]),
        ),
        note=d.get("note", ""),
    )
