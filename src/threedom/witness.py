"""Machine-checkable certificates for domination verdicts.

Two kinds of certificate back a YES answer:

* `FiniteCoverWitness` - a finite cover of the manifold by a product F x S^1
  or by a circle bundle; for Seifert pieces these are existence-backed (the
  arithmetic of the cover is recorded, the covering map itself is classical
  and not constructed), and `verify_finite_cover` re-derives that arithmetic
  from the piece's Seifert invariants.

* `InessentialWitness` - the finite cover of a rationally inessential
  manifold by #_n(S^2 x S^1), with the `BranchedCoverSchema` that dominates
  it: the pillowcase times the circle for n = 1, its double for n = 2, fiber
  products with unramified covers for n >= 3, and the parallel circle-bundle
  constructions built from the mapping torus of [[1,1],[0,1]] with the
  -identity involution.  `verify_schema` checks the schema, two checks
  tie the schema's rank and the cover's Euler characteristic to the
  manifold, and the Reidemeister-Schreier oracle re-derives the free rank n.

Both certificate types render and check themselves through the same three
methods, so a caller never asks which one it holds: `payload()` is the JSON
`witness` object, `lines()` the human `witness:` lines, and `checks(m,
max_order)` the verifier results for the manifold m; a check that was not
run has `passed` None and is not a failure.  The records accept any values:
the verifiers are the only judges of a certificate.

Schemas are symbolic: each records exactly the arithmetic the construction
determines (Riemann-Hurwitz slice data, monodromy matrices, Euler-number
fiber sums, unramified-stage characteristics, generator images in the target
free group), and `verify_schema` re-derives every identity from scratch,
without assuming how the builders made them and without calling them: it
reads the target's counts rather than building #_n(S^2 x S^1) again.  The
branch-circle count of the n = 2 cover is a constant of the construction,
judged by the slice and local-degree checks.  Every built schema shares one
frame, stated once in `_schema`: degree 2 onto #_n(S^2 x S^1), source genus
and pi_1 rank n, local degree 2 at each branch circle, a slice with
chi_source = 2 - 2n, and the free basis as generator images for n <= 2.
The record dataclasses define the schema file format: one JSON key per
field, written and read by one codec derived from their annotations.  A
witness's `payload()` is its own fields, with the schema written by
`schema_to_dict`.  The target #_n(S^2 x S^1) is held as one piece with
multiplicity n, so it costs the same for every n; a bundle schema's
fiber-sum parts and `payload()`, which spells the target out, still grow
with n.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from itertools import chain
from math import lcm
from typing import Optional, Union, get_args, get_origin, get_type_hints

from . import groups
from .groups import FreeProductData, nielsen_schreier_rank, stallings_fold
from .manifold import (
    Manifold,
    S3,
    S2xS1,
    SeifertData,
    Spherical,
    describe,
    euler_number,
    memoized_on_value,
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
    note: str = field(default="", metadata={"optional_key": True})

    @property
    def source(self) -> str:
        return _cover_name(self.source_kind, self.source_genus, self.source_euler)


@dataclass(frozen=True)
class FiniteCoverWitness:
    """A finite cover by a product F x S^1 or by a circle bundle."""

    kind: str                   # "product" or "bundle"
    base_genus: int
    euler: int                  # 0 for products, non-zero for bundles
    degree: int
    construction_status: str    # "explicit" | "existence-backed"

    @property
    def cover(self) -> str:
        return _cover_name(self.kind, self.base_genus, self.euler)

    def payload(self) -> dict:
        return {"type": "finite_cover", "cover": self.cover, **vars(self)}

    def lines(self) -> list[str]:
        return [f"witness: {self.kind} cover {self.cover}, degree {self.degree} "
                f"({self.construction_status})"]

    def checks(self, m: Manifold, max_order: int) -> tuple[CheckResult, ...]:
        """That m is one Seifert piece of multiplicity 1, then the cover's
        arithmetic against that piece, which is not run on any other m."""
        summands = sum(c for _, c in m.counts)
        piece = m.counts[0][0] if summands == 1 else None
        single = CheckResult(
            "single_seifert_piece", isinstance(piece, SeifertData),
            f"{summands} summand{'s' * (summands != 1)}"
            + (f", of type {type(piece).__name__}" if piece is not None else ""))
        if not single.passed:
            return (single,)
        return (single, *verify_finite_cover(piece, self).checks)


@dataclass(frozen=True)
class InessentialWitness:
    """Cover by #_n(S^2 x S^1) plus the branched-cover schema dominating it."""

    free_rank: int
    cover_degree: int
    schema: BranchedCoverSchema

    def payload(self) -> dict:
        return {"type": "inessential", **vars(self),
                "schema": schema_to_dict(self.schema)}

    def lines(self) -> list[str]:
        lines = [f"witness: covered with degree {self.cover_degree} by "
                 f"#_{self.free_rank}(S^2xS^1), dominated by "
                 f"{self.schema.source} (branched double cover)"]
        if self.schema.branch_components is not None:
            lines.append(f"  branch circles: {self.schema.branch_components}")
        return lines

    def checks(self, m: Manifold, max_order: int) -> tuple[CheckResult, ...]:
        """The schema's checks; that the schema dominates #_n(S^2 x S^1) for
        the witness's n; the Euler characteristic of the cover against
        pi_1(m); then the closed free-rank formula against coset enumeration
        of pi_1(m), skipped above max_order cosets."""
        rank_matches = self.schema.pi1_rank == self.free_rank
        return (*verify_schema(self.schema).checks,
                CheckResult("schema_rank_matches", rank_matches,
                            f"schema pi1_rank {self.schema.pi1_rank}, "
                            f"free rank {self.free_rank}"),
                self._euler_characteristic(m),
                self._rank_oracle(m, max_order))

    def _euler_characteristic(self, m: Manifold) -> CheckResult:
        """pi_1(m) = F_l * Z_{q_1} * ... * Z_{q_k} has Euler characteristic
        chi = 1 - l - k + sum 1/q_i, and Euler characteristics multiply
        under finite index (Serre, "Trees", 1980), so a free cover of
        degree d, which every q_i divides, has 1 - free_rank = d * chi.  In
        integers, from the counts of m: d * chi = d (1 - l - k) + sum d/q_i.
        """
        d = self.cover_degree
        l = sum(c for p, c in m.counts if isinstance(p, S2xS1))
        orders = [(p.order, c) for p, c in m.counts if isinstance(p, Spherical)]
        divides = d >= 1 and all(d % q == 0 for q, _ in orders)
        d_chi = d * (1 - l - sum(c for _, c in orders)) \
            + sum(c * (d // q) for q, c in orders)
        return CheckResult(
            "euler_characteristic", divides and 1 - self.free_rank == d_chi,
            f"degree {d} {'is' if divides else 'is not'} a positive multiple "
            f"of every spherical order; 1 - free_rank = {1 - self.free_rank}, "
            f"degree*chi = {d_chi}")

    def _rank_oracle(self, m: Manifold, max_order: int) -> CheckResult:
        try:
            # Looked up on the module, so that a replaced oracle takes effect.
            rank = groups.reidemeister_schreier_rank_oracle(
                free_product_data(m), max_order=max_order)
        except groups.OrderBoundExceeded:
            return CheckResult("rank_oracle", None, "degree above --max-order")
        if rank == self.free_rank:
            return CheckResult("rank_oracle", True,
                               "closed formula matches coset enumeration")
        return CheckResult("rank_oracle", False,
                           f"free cover rank {self.free_rank} disagrees with "
                           f"the coset-enumeration oracle ({rank})")


@memoized_on_value
def free_product_data(m: Manifold) -> FreeProductData:
    """pi_1 of a rationally inessential manifold, as free-product data.

    Kept on the value.  It reads the pieces itself, so that it calls no
    other helper: a manifold with a piece other than S2xS1 and Spherical is
    rationally essential."""
    if not all(isinstance(p, (S2xS1, Spherical)) for p, _ in m.counts):
        raise ValueError("manifold is rationally essential")
    l = sum(c for p, c in m.counts if isinstance(p, S2xS1))
    orders = tuple(chain.from_iterable(
        (p.order,) * c for p, c in m.counts if isinstance(p, Spherical)))
    return FreeProductData(l, orders)


def _cover_name(kind: str, genus: int, euler: int) -> str:
    if kind == "product":
        return f"Sigma_{genus} x S1"
    return f"circle bundle over Sigma_{genus} with Euler number {euler}"


# ---------------------------------------------------------------------------
# Schema constructors
# ---------------------------------------------------------------------------

def _schema(kind: str, n: int, euler: int, note: str,
            branch: Optional[int] = None, slice_points: Optional[int] = None,
            **construction) -> BranchedCoverSchema:
    """The schema of a `kind` source of genus n and Euler number `euler`, in
    the frame every construction shares (see the module docstring): `branch`
    branch circles of local degree 2 when the count is known, a slice with
    `slice_points` branch points when there is one, and the construction's
    own section in `construction`."""
    return BranchedCoverSchema(
        source_kind=kind, source_genus=n, source_euler=euler,
        target=Manifold(((S2xS1(), n),)), degree=2,
        branch_components=branch,
        local_degrees=() if branch is None else (2,) * branch,
        pi1_rank=n, pi1_data=("a", "b")[:n] if n <= 2 else None,
        slice_check=None if slice_points is None
        else SliceCheck(2 - 2 * n, 2, 2, (2,) * slice_points),
        note=note, **construction)


def pillowcase_schema() -> BranchedCoverSchema:
    """The degree-2 branched cover T^2 -> S^2 with four branch points."""
    return replace(product_branched_cover_schema(1), target=S3, pi1_rank=0,
                   pi1_data=(), note="2-dimensional base schema: quotient of "
                   "T^2 by the hyperelliptic involution")


def product_branched_cover_schema(n: int) -> BranchedCoverSchema:
    """Branched double cover Sigma_n x S^1 -> #_n(S^2 x S^1).

    n = 1 is the pillowcase times the circle; n = 2 is its double along a
    ball containing two branch circles; n >= 3 is the fiber product with the
    (n-1)-sheeted unramified cover of the n = 2 target, recorded as an
    unramified stage with undetermined branch-circle count.  n = 0 covers
    S^3 with source genus 0 (the two-branch-circle double cover convention).
    """
    if n == 0:
        return _schema("product", 0, 0, "degenerate case: S^2 x S^1 doubly "
                       "covers S^3 branched over a 2-component unlink; "
                       "pi_1(S^3) is trivial", branch=2, slice_points=2)
    if n == 1:
        return _schema("product", 1, 0, "pillowcase times the circle",
                       branch=4, slice_points=4)
    if n == 2:
        # 4 circles per copy; each of the 2 cut circles closes up from 2 arcs.
        return _schema("product", 2, 0, "double of the pillowcase cover cut "
                       "along a ball containing two branch circles; generator "
                       "images hardcoded from the construction and certified "
                       "by folding", branch=6, slice_points=6)
    return _schema("product", n, 0, "fiber product of the n=2 cover with the "
                   "(n-1)-sheeted unramified cover; branch-circle count "
                   "undetermined", unramified_stage=UnramifiedStage(
                       degree=n - 1, chi_cover=2 - 2 * n, chi_base=-2))


def bundle_branched_cover_schema(n: int) -> BranchedCoverSchema:
    """Branched double cover of #_n(S^2 x S^1) by a non-trivial circle bundle.

    n = 0: the Hopf bundle pulled back along a branched double cover of S^2,
    giving Euler number 2 over S^2.  n = 1: the mapping torus of [[1,1],[0,1]]
    quotiented by the -identity involution; the source is the Euler-number-1
    bundle over T^2.  n >= 2: fiber sum of n copies, Euler number n over
    Sigma_n.
    """
    if n == 0:
        return _schema("bundle", 0, 2, "Hopf fibration pulled back along a "
                       "branched double cover of S^2; Euler number doubles "
                       "under the degree-2 base map", branch=2, slice_points=2,
                       pullback=PullbackRecord(base_degree=2, total_degree=2,
                                               euler_base=1, euler_pulled=2))
    if n == 1:
        return _schema("bundle", 1, 1, "mapping torus of [[1,1],[0,1]] "
                       "modulo the fiberwise -identity involution; on every "
                       "fiber the quotient is the pillowcase", slice_points=4,
                       monodromy=MonodromyData(matrix=((1, 1), (0, 1))))
    return _schema("bundle", n, n, "fiber sum of n copies of the "
                   "Euler-number-1 bundle over T^2, glued so the branched "
                   "covering maps match up",
                   fiber_sum=FiberSumRecord(parts=(1,) * n, total=n))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: Optional[bool]      # None: the check was skipped, detail says why
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.passed is False)


CONSTRUCTIONS = ("slice_check", "monodromy", "fiber_sum", "pullback",
                 "unramified_stage", "pi1_data")


def verify_schema(s: BranchedCoverSchema) -> VerificationReport:
    """Re-derive every identity a schema claims; failures are report entries.

    Six checks run on every schema: the target is #_n(S^2 x S^1) with n the
    claimed rank of its free group, the degree is 2, the source is a product
    or a circle bundle, its Euler number is 0 exactly when it is a product,
    at least one construction section is there to be checked, and the
    source genus is at least n.  The last holds for every map of non-zero
    degree: the source's central fiber maps to 1 in a free group of rank
    n >= 2, so the image, of finite index and rank >= n, is a free quotient
    of the surface group, whose rank is at most the genus; a bundle over
    S^2 has finite pi_1, while S^2 x S^1 dominates itself (n = 1).  Each
    construction is also tied to the source it claims: the slice surface has
    genus source_genus, a fiber sum has one part per handle, and a monodromy
    [[1,k],[0,1]] gives the Euler-number-k bundle over the torus.
    """
    n = s.pi1_rank
    on_target = s.target.counts == (((S2xS1(), n),) if n else ())
    present = [name for name in CONSTRUCTIONS if getattr(s, name) is not None]
    checks: list[CheckResult] = [
        CheckResult("target_is_sum_of_s2xs1", on_target,
                    f"target {'is' if on_target else 'is not'} #_{n}(S2xS1), "
                    "n = pi1_rank"),
        CheckResult("degree_two", s.degree == 2, f"degree {s.degree}"),
        CheckResult("source_kind", s.source_kind in ("product", "bundle"),
                    f"source kind {s.source_kind!r}"),
        CheckResult(
            "euler_matches_kind",
            (s.source_kind == "product") == (s.source_euler == 0),
            f"{s.source_kind} source, Euler number {s.source_euler}"),
        CheckResult("construction_present", bool(present),
                    f"sections: {', '.join(present) or 'none'}"),
        CheckResult("source_genus_covers_rank",
                    s.source_genus >= n or n == 0
                    or (n == 1 and s.source_kind == "product"),
                    f"source genus {s.source_genus}, pi1_rank {n}"),
    ]

    if s.slice_check is not None:
        sl = s.slice_check
        rhs = sl.degree * sl.chi_target - sum(d - 1 for d in sl.local_degrees)
        checks.append(CheckResult(
            "riemann_hurwitz", sl.chi_source == rhs,
            f"chi_source = {sl.chi_source}, degree*chi_target - sum(d-1) = {rhs}"))
        chi = 2 - 2 * s.source_genus
        checks.append(CheckResult(
            "slice_genus", sl.chi_source == chi,
            f"chi_source = {sl.chi_source}, 2 - 2*source_genus = {chi}"))

    if s.branch_components is not None:
        checks.append(CheckResult(
            "local_degrees", (len(s.local_degrees) == s.branch_components
                              and all(d == 2 for d in s.local_degrees)),
            f"{len(s.local_degrees)} recorded local degrees "
            f"{s.local_degrees} for {s.branch_components} branch circles"))

    if s.monodromy is not None:
        # [[1,k],[0,1]] has determinant 1, and every matrix commutes with -I.
        (a, b), (c, d) = s.monodromy.matrix
        checks.append(CheckResult(
            "involution_is_minus_identity",
            s.monodromy.involution == ((-1, 0), (0, -1)),
            f"involution = {s.monodromy.involution}"))
        checks.append(CheckResult(
            "monodromy_euler",
            (a, c, d) == (1, 0, 1) and b == s.source_euler
            and s.source_genus == 1,
            f"monodromy {s.monodromy.matrix} against "
            f"((1, {s.source_euler}), (0, 1)), source genus "
            f"{s.source_genus} against 1"))

    if s.fiber_sum is not None:
        total = sum(s.fiber_sum.parts)
        checks.append(CheckResult(
            "fiber_sum_additivity",
            total == s.fiber_sum.total == s.source_euler,
            f"sum(parts) = {total}, recorded total = {s.fiber_sum.total}, "
            f"source Euler number = {s.source_euler}"))
        parts = len(s.fiber_sum.parts)
        checks.append(CheckResult(
            "fiber_sum_genus", parts == s.source_genus,
            f"{parts} parts, source genus {s.source_genus}"))

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
        if st.degree < 1:
            checks.append(CheckResult(
                "nielsen_schreier_rank", False,
                f"unramified degree {st.degree} is not a covering degree (>= 1)"))
        else:
            ns = nielsen_schreier_rank(2, st.degree)
            checks.append(CheckResult(
                "nielsen_schreier_rank",
                s.source_genus == ns and 2 - 2 * s.source_genus == st.chi_cover,
                f"source genus {s.source_genus}, 1 + degree*(2-1) = {ns}"))

    if s.pi1_data is not None:
        if not 0 <= s.pi1_rank <= 26:
            raise ValueError(f"pi1_rank {s.pi1_rank} is not in 0..26: pi1_data "
                             "words spell generators a-z, inverses A-Z")
        if s.pi1_rank == 0:
            checks.append(CheckResult(
                "pi1_surjective", len(s.pi1_data) == 0,
                "target group is trivial"))
        else:
            alphabet = [chr(ord("a") + i) for i in range(s.pi1_rank)]
            idx = stallings_fold(s.pi1_data, alphabet=alphabet).index()
            words, letters = len(s.pi1_data), sum(map(len, s.pi1_data))
            checks.append(CheckResult(
                "pi1_surjective", idx == 1,
                f"folded image of {words} word{'s' * (words != 1)} "
                f"({letters} letter{'s' * (letters != 1)}) has index "
                f"{'infinite' if idx is None else idx} in F_{s.pi1_rank}"))

    return VerificationReport(tuple(checks))


def verify_finite_cover(s: SeifertData, w: FiniteCoverWitness) -> VerificationReport:
    """Re-derive the arithmetic of a finite cover of the Seifert piece s.

    A cover by a circle bundle unwraps every exceptional fiber, so
    L = lcm(alpha_i) divides its degree d >= 1; its base has Euler
    characteristic 2 - 2g' = d * chi_orb (Riemann-Hurwitz); its Euler number
    is d * e; and it is a product when e = 0 and a bundle otherwise.
    """
    chi = orbifold_euler_characteristic(s)
    e = euler_number(s)
    fiber_lcm = lcm(*(alpha for alpha, _ in s.fibers))
    chi_cover = 2 - 2 * w.base_genus
    return VerificationReport((
        CheckResult(
            "lcm_divides_degree", w.degree >= 1 and w.degree % fiber_lcm == 0,
            f"lcm(alpha) = {fiber_lcm}, degree {w.degree}"),
        CheckResult(
            "riemann_hurwitz", chi_cover == w.degree * chi,
            f"2 - 2g' = {chi_cover}, degree*chi_orb = "
            f"{w.degree * chi}"),
        CheckResult(
            "euler_scaling", w.euler == w.degree * e,
            f"e' = {w.euler}, degree*e = {w.degree * e}"),
        CheckResult(
            "kind_matches_euler",
            w.kind in ("product", "bundle")
            and (w.kind == "product") == (e == 0),
            f"{w.kind} cover, e = {e}"),
    ))


# ---------------------------------------------------------------------------
# Serialization: the record dataclasses are the schema file format
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1


def schema_to_dict(s: BranchedCoverSchema) -> dict:
    return {"schema_version": SCHEMA_VERSION, "source": s.source,
            **_record_codec(BranchedCoverSchema)[0](s)}


def schema_from_dict(d) -> BranchedCoverSchema:
    """The schema `schema_to_dict` wrote as d.  Every record field is a
    required key, except a top-level `note`; other keys, such as `source`,
    are ignored.  Anything else - not an object, a `schema_version` other
    than the integer 1, a missing field, a value of the wrong type or
    shape - raises ValueError naming the field's dotted path, which the CLI
    reports as a rejection."""
    if not isinstance(d, dict):
        raise ValueError(f"a schema is a JSON object, not {type(d).__name__}")
    version = d.get("schema_version")
    if not _is(type(version), int) or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    return _record_codec(BranchedCoverSchema)[1](d, "")


@cache
def _codec(tp) -> tuple:
    """(encode, decode) for values of the annotated field type tp, built on
    first use: encode gives a value's JSON form, and decode(value, path)
    checks a JSON value and returns the field value, or raises ValueError
    naming the dotted path."""
    if tp in (int, str):
        return (lambda v: v), lambda value, path: _check(value, tp, path)
    if tp is Manifold:
        def decode_target(text, path):
            _check(text, str, path)
            try:
                return parse_manifold(text)
            except ValueError as exc:
                raise ValueError(f"schema field {path!r}: {exc}") from None
        return describe, decode_target
    if is_dataclass(tp):
        return _record_codec(tp)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union and args[1:] == (type(None),):
        encode, decode = _codec(args[0])
        return (lambda v: None if v is None else encode(v),
                lambda v, path: None if v is None else decode(v, path))
    if origin is tuple and args[1:] == (Ellipsis,) and args[0] in (int, str):
        def decode_items(items, path, item=args[0]):
            # One check per distinct item type: no Python call per item.
            types = set(map(type, _check(items, list, path)))
            if not all(_is(t, item) for t in types):
                raise ValueError(f"schema field {path!r} must list "
                                 f"{item.__name__} values")
            return tuple(items)
        return list, decode_items
    if origin is tuple and Ellipsis not in args:
        encoders, decoders = zip(*map(_codec, args))

        def decode_fixed(items, path):
            if len(_check(items, list, path)) != len(decoders):
                raise ValueError(f"schema field {path!r} must list "
                                 f"{len(decoders)} values")
            return tuple(dec(x, path) for dec, x in zip(decoders, items))
        return lambda t: [enc(x) for enc, x in zip(encoders, t)], decode_fixed
    raise TypeError(f"no schema codec for {tp!r}")


@cache
def _record_codec(cls) -> tuple:
    """(encode, decode) for a record dataclass: one key per field, decoded in
    declaration order, required unless the field is marked `optional_key`."""
    hints = get_type_hints(cls)
    plan = [(f.name, *_codec(hints[f.name]), f.metadata.get("optional_key"))
            for f in fields(cls)]

    def decode(d, path):
        _check(d, dict, path)
        values = {}
        for name, _, dec, optional in plan:
            key = f"{path}.{name}" if path else name
            if name in d:
                values[name] = dec(d[name], key)
            elif not optional:     # else the field's default stands
                raise ValueError(f"schema field {key!r} is missing")
        return cls(**values)
    return (lambda record: {name: enc(getattr(record, name))
                            for name, enc, _, _ in plan}), decode


def _check(value, kind: type, path: str):
    if not _is(type(value), kind):
        raise ValueError(f"schema field {path!r} must be {kind.__name__}, "
                         f"not {type(value).__name__}")
    return value


def _is(t: type, kind: type) -> bool:
    # JSON true and false are not numbers, though bool subclasses int.
    return issubclass(t, kind) and not issubclass(t, bool)
