"""Independent reference checker for the benchmark.

Nothing here imports the program.  Expected answers are computed from the
generator's own piece data, with exact rationals, straight from the paper's
statements:

* product domination, Thm 1.1: rationally inessential, or a single Seifert
  piece with Euler number 0;
* non-trivial bundle domination, Thm 1.2: rationally inessential, or a single
  Seifert piece with Euler number != 0;
* any circle bundle, Cor 7.2: the disjunction of the two;
* presentability by products, Thm 6.1 and Sec 6: undefined ("ERR") for finite
  pi_1; a prime manifold is presentable iff it is Seifert fibered or S2xS1; a
  non-trivial free product only when it is Z_2 * Z_2.

Piece data is a tuple: ("sfs", g, b, ((alpha, beta), ...)), ("sph", q),
("s2s1",), ("hyp",), ("sol",) or ("other",).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, prod

ESSENTIAL = ("sfs", "hyp", "sol", "other")

# Failure classes, in the order a single operation is classified.
FAILURE_CLASSES = (
    "timeout",
    "exception",
    "route_disagreement",
    "wrong_verdict",
    "invalid_witness",
    "genuine_rejected",
    "forged_accepted",
    "zero_check_pass",
    "unchecked",        # the reference could not read the output
)


class Rejected(Exception):
    """The description denotes no manifold of the model (a spherical SFS)."""


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def chi_orb(genus: int, fibers) -> Fraction:
    return 2 - 2 * genus - sum((1 - Fraction(1, a) for a, _ in fibers), Fraction(0))


def euler(b: int, fibers) -> Fraction:
    return -(b + sum((Fraction(beta, a) for a, beta in fibers), Fraction(0)))


def normalize(pieces) -> tuple:
    """Reduce every fiber to 0 < beta < alpha and resolve chi_orb > 0 pieces.

    Raises `Rejected` where the program must reject the input.
    """
    out = []
    for p in pieces:
        if p[0] != "sfs":
            out.append(p)
            continue
        _, g, b, fibers = p
        reduced = []
        for a, beta in fibers:
            q, r = divmod(beta, a)
            b += q
            if r:
                reduced.append((a, r))
        if chi_orb(g, reduced) > 0:
            if euler(b, reduced) != 0 or reduced:
                raise Rejected(f"spherical Seifert piece {p}")
            out.append(("s2s1",))
        else:
            out.append(("sfs", g, b, tuple(sorted(reduced))))
    return tuple(sorted(out))


def expected_verdicts(norm: tuple) -> dict[str, str]:
    """YES / NO / ERR for the four queries on normalized pieces."""
    essential = [p for p in norm if p[0] in ESSENTIAL]
    if not essential:
        product = ntbundle = "YES"
    elif len(norm) == 1 and norm[0][0] == "sfs":
        zero = euler(norm[0][2], norm[0][3]) == 0
        product, ntbundle = ("YES", "NO") if zero else ("NO", "YES")
    else:
        product = ntbundle = "NO"
    anybundle = "YES" if "YES" in (product, ntbundle) else "NO"
    if not norm or (len(norm) == 1 and norm[0][0] == "sph"):
        presentable = "ERR"
    elif len(norm) == 1:
        presentable = "YES" if norm[0][0] in ("sfs", "s2s1") else "NO"
    else:
        presentable = "YES" if norm == (("sph", 2), ("sph", 2)) else "NO"
    return {"product": product, "ntbundle": ntbundle,
            "anybundle": anybundle, "presentable": presentable}


def free_rank(norm: tuple) -> tuple[int, int]:
    """(rank, degree) of the free cover of an inessential sum: 1 - m*chi, m."""
    l = sum(1 for p in norm if p[0] == "s2s1")
    orders = [p[1] for p in norm if p[0] == "sph"]
    m = prod(orders)
    chi = 1 - l - sum((1 - Fraction(1, q) for q in orders), Fraction(0))
    return int(1 - m * chi), m     # an integer: q | m for every order q


def fiber_lcm(norm: tuple) -> int:
    """lcm of the fiber orders of the Seifert pieces (1 if there are none)."""
    return _lcm(a for p in norm if p[0] == "sfs" for a, _ in p[3])


def check_finite_cover(piece: tuple, kind: str, genus: int, euler_num: int,
                       degree: int) -> list[str]:
    """Problems with a claimed cover of one Seifert piece, by the identities
    lcm(alpha_i) | d, 2 - 2g' = d * chi_orb, e' = d * e, kind <-> sign of e."""
    _, g, b, fibers = piece
    chi, e = chi_orb(g, fibers), euler(b, fibers)
    problems = []
    L = _lcm(a for a, _ in fibers)
    if degree < 1 or degree % L:
        problems.append(f"lcm(alpha) = {L} does not divide degree {degree}")
    if 2 - 2 * genus != degree * chi:
        problems.append(f"2 - 2g' = {2 - 2 * genus} != d*chi_orb = {degree * chi}")
    if euler_num != degree * e:
        problems.append(f"e' = {euler_num} != d*e = {degree * e}")
    if (kind == "product") != (e == 0):
        problems.append(f"{kind} cover for a piece with e = {e}")
    return problems


# ---------------------------------------------------------------------------
# Text grammar, for reading the corpus file only
# ---------------------------------------------------------------------------

_MARKERS = {"S2xS1": ("s2s1",), "Hyperbolic": ("hyp",), "Sol": ("sol",),
            "OtherAspherical": ("other",)}
_SPH = re.compile(r"Spherical\((\d+)\)")
_SFS = re.compile(r"SFS\(g=(-?\d+);b=(-?\d+)((?:;\(-?\d+,-?\d+\)(?:,\(-?\d+,-?\d+\))*)?)\)")
_PAIR = re.compile(r"\((-?\d+),(-?\d+)\)")


def parse(text: str) -> tuple:
    """Piece data of a description in the input grammar."""
    text = "".join(text.split())
    if text == "S3":
        return ()
    pieces = []
    for term in text.split("#"):
        if term in _MARKERS:
            pieces.append(_MARKERS[term])
        elif mo := _SPH.fullmatch(term):
            pieces.append(("sph", int(mo.group(1))))
        elif mo := _SFS.fullmatch(term):
            fibers = tuple((int(a), int(b)) for a, b in _PAIR.findall(mo.group(3)))
            pieces.append(("sfs", int(mo.group(1)), int(mo.group(2)), fibers))
        else:
            raise ValueError(f"not a piece: {term!r}")
    return tuple(pieces)


# ---------------------------------------------------------------------------
# Classifying one operation
# ---------------------------------------------------------------------------

def classify_decide(pieces: tuple, outcome: dict) -> str | None:
    """Failure class of one decide operation, or None when it is correct.

    `outcome` is what the program answered, as plain data: either
    {"rejected": message} or {"verdicts", "routes", "certificates"}.
    """
    try:
        norm = normalize(pieces)
    except Rejected:
        return None if "rejected" in outcome else "wrong_verdict"
    if "rejected" in outcome:
        return "wrong_verdict"
    expected = expected_verdicts(norm)
    for kind, query in (("product", "product"), ("bundle", "ntbundle")):
        routes = set(outcome["routes"][kind])
        if len(routes) != 1:
            return "route_disagreement"
        if ("YES" if routes.pop() else "NO") != expected[query]:
            return "wrong_verdict"
    if outcome["verdicts"] != expected:
        return "wrong_verdict"
    for cert in outcome["certificates"]:
        if not _certificate_ok(norm, cert):
            return "invalid_witness"
    return None


def _certificate_ok(norm: tuple, cert: dict) -> bool:
    if cert["type"] == "finite_cover":
        if len(norm) != 1 or norm[0][0] != "sfs":
            return False
        return not check_finite_cover(norm[0], cert["kind"], cert["base_genus"],
                                      cert["euler"], cert["degree"])
    if any(p[0] in ESSENTIAL for p in norm):
        return False
    rank, m = free_rank(norm)
    kind = "product" if cert["query"] in ("product", "anybundle") else "bundle"
    return (cert["free_rank"] == rank and cert["cover_degree"] == m
            and cert["pi1_rank"] == rank and cert["degree"] == 2
            and cert["source_kind"] == kind and cert["verified"]
            and cert["oracle_rank"] in (None, rank))


def classify_schema(genuine: bool, outcome: dict) -> str | None:
    """Failure class of one schema-verify operation, or None when correct.

    `outcome` is {"rejected": message} when loading raised ValueError, else
    {"passed": bool, "checks": int}.
    """
    if "rejected" in outcome:
        return "genuine_rejected" if genuine else None
    if outcome["passed"] and outcome["checks"] == 0:
        return "zero_check_pass"
    if outcome["passed"] != genuine:
        return "genuine_rejected" if genuine else "forged_accepted"
    return None


def genuine(record: dict) -> bool:
    """Label of a generated schema: untouched by a forgery, and any pi1_data
    it was given, <a^L, a^(L+s), b a^L>, generates F_2 iff gcd(L, L+s) = 1."""
    if record["forgery"] is not None:
        return False
    if record["words"] is None:
        return True
    length, step = record["words"]
    return gcd(length, length + step) == 1
