"""Seeded input generators.

A workload is an endless sequence of blocks; block `i` of a seed depends
only on (workload, seed, i), so a run that stops after any number of blocks
saw exactly the inputs another run with that seed saw.  Within a block the
input sizes are stratified (see `_strata`), so every block carries the same
size mix whatever the seed, and the seed decides the numbers, the spelling
of the text and the order.  The program receives only the text, and the
generator calls none of it.

Every item is (kind, text, data).  For decide workloads `data` is the
literal piece data the text spells (see `reference`); for schema-verify it
is the record of how the schema was made, from which `reference.genuine`
computes its label.
"""

from __future__ import annotations

import itertools
import json
import random
from math import gcd, prod

from . import reference

FIRST_PRIMES = (2, 3, 5, 7, 11, 13)
ODD_PRIMES = (3, 5, 7, 11, 13, 17)
SFS_STRATA = 16         # single Seifert pieces per large-invariants block
SPHERICAL_STRATA = 16   # spherical sums per large-invariants block
N_STRATA = 8            # #_n schemas per schema-verify block
WORD_STRATA = 6         # rank-2 word schemas per schema-verify block
FORGED_PER_BLOCK = 4
GOLDEN = 0.6180339887498949


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


# ---------------------------------------------------------------------------
# Rendering piece data as text
# ---------------------------------------------------------------------------

def render(pieces, rng: random.Random) -> str:
    """Spell Seifert and spherical pieces in the input grammar, in a seeded
    order and spacing.

    Fiber lists are permuted and each beta may be shifted by a multiple of
    alpha with b compensating, which leaves the manifold unchanged.
    """
    sep = rng.choice((" # ", "#", " #  "))
    terms = [_render_piece(p, rng) for p in pieces]
    rng.shuffle(terms)
    return sep.join(terms)


def _render_piece(p, rng: random.Random) -> str:
    if p[0] == "sph":
        return f"Spherical({p[1]})"
    _, g, b, fibers = p
    pairs = []
    for a, beta in fibers:
        k = rng.choice((-1, 0, 0, 1))
        pairs.append((a, beta + k * a))
        b -= k
    rng.shuffle(pairs)
    semi, comma = rng.choice(("; ", ";")), rng.choice((", ", ","))
    head = f"SFS(g={g}{semi}b={b}"
    if pairs:
        head += semi + comma.join(f"({a},{beta})" for a, beta in pairs)
    return head + ")"


# ---------------------------------------------------------------------------
# large-invariants: short texts that imply large numbers
# ---------------------------------------------------------------------------

def _strata(block: int, strata: int, lo: float, hi: float) -> list[float]:
    """One size from each of `strata` equal slices of [10**lo, 10**hi] on a
    log scale.  The position inside the slices follows a golden-ratio
    sequence over the blocks, so consecutive blocks fill every slice evenly.
    The sizes do not depend on the seed, which sets everything else: the
    factorization, the other invariants, the spelling and the order."""
    offset = (0.5 + block * GOLDEN) % 1
    return [10 ** (lo + (hi - lo) * (i + offset) / strata) for i in range(strata)]


def _coprime_orders(rng: random.Random, target: float, k: int, odd: bool) -> list[int]:
    """k pairwise-coprime fiber orders with product just above `target`.

    Starts from the first k primes, or the first k odd primes, and grows one
    random factor at a time in steps of 2, so each factor keeps its parity.
    The parity of the lcm is worth fixing per stratum: the smallest degree d
    with d*chi_orb even and d*e integral is the lcm when it is odd and twice
    the lcm when it is even.
    """
    out = list(ODD_PRIMES[:k] if odd else FIRST_PRIMES[:k])
    while prod(out) < target:
        i = rng.randrange(k)
        others = out[:i] + out[i + 1:]
        f = out[i] + 2
        while any(gcd(f, x) != 1 for x in others):
            f += 2
        out[i] = f
    return out


def _orders(rng: random.Random, target: float, k: int) -> list[int]:
    """k integers >= 2 with product near `target`."""
    out: list[int] = []
    for j in range(k):
        share = (target / prod(out)) ** (1 / (k - j))
        out.append(max(2, round(share * (rng.uniform(0.75, 1.33) if j < k - 1 else 1))))
    return out


def _near(rng: random.Random, target: float, turn: int, k_options, coprime: bool) -> list[int]:
    """Orders with product near `target` inside [1e2, 1e5].  As `turn`
    advances the factor count cycles through the feasible options and, for
    coprime orders, the parity of their lcm alternates."""
    odd = coprime and turn % 2 == 1 and prod(ODD_PRIMES[:3]) <= target
    base = ODD_PRIMES if odd else FIRST_PRIMES
    feasible = [k for k in k_options if prod(base[:k]) <= target]
    k = feasible[turn // 2 % len(feasible)]
    for attempt in itertools.count(1):
        orders = _coprime_orders(rng, target, k, odd) if coprime else _orders(rng, target, k)
        if 100 <= prod(orders) <= 100_000:
            return orders
        if attempt % 50 == 0 and k > k_options[0]:
            k -= 1


def _fiber(rng: random.Random, a: int) -> tuple[int, int]:
    while True:
        beta = rng.randrange(1, a)
        if gcd(a, beta) == 1:
            return a, beta


def _primes(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(hi ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(lo, hi) if sieve[p]]


_DEADLINE_PRIMES = _primes(1_000, 40_000)


def large_block(seed: int, block: int) -> list[tuple]:
    """Sixteen single Seifert pieces with 3-6 pairwise-coprime fiber orders
    and lcm log-uniform in 1e2-1e5, sixteen sums of 2-5 Spherical(q) with
    order product log-uniform in 1e2-1e5, and in every even-numbered block one
    deadline-class piece of the SFS(g=0; b=0; (10007,1),(10009,1),(10037,1))
    kind, lcm beyond 1e9: each one costs a whole deadline, so there is one
    per two blocks."""
    rng = _rng("large-invariants", seed, block)
    items = []
    lcms = _strata(block, SFS_STRATA, 2, 5)
    for i, target in enumerate(lcms):
        orders = _near(rng, target, block + i, (3, 4, 5, 6), coprime=True)
        fibers = tuple(_fiber(rng, a) for a in orders)
        genus = rng.choice((0, 1))
        if reference.chi_orb(genus, fibers) >= 0:
            genus = 1
        pieces = (("sfs", genus, rng.randint(-2, 2), fibers),)
        items.append(("sfs", render(pieces, rng), pieces))
    products = _strata(block, SPHERICAL_STRATA, 2, 5)
    for i, target in enumerate(products):
        orders = _near(rng, target, block + i, (2, 3, 4, 5), coprime=False)
        pieces = tuple(("sph", q) for q in orders)
        items.append(("spherical", render(pieces, rng), pieces))
    if block % 2 == 0:
        orders = rng.sample(_DEADLINE_PRIMES, 3)
        pieces = (("sfs", 0, rng.randint(-1, 1), tuple(_fiber(rng, a) for a in orders)),)
        items.append(("deadline", render(pieces, rng), pieces))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# schema-verify: certificates read back
# ---------------------------------------------------------------------------

FORGERIES = ("target_hyperbolic", "bogus_source_kind", "degree_changed",
             "optional_null", "missing_keys", "top_level_list",
             "non_generating_words")
OPTIONAL = ("pi1_data", "slice_check", "monodromy", "fiber_sum",
            "unramified_stage", "pullback", "branch_components")


def _schema_dict(kind: str, n: int) -> dict:
    """The `--json` form of the genuine branched double cover of
    #_n(S2xS1) by a product (Sigma_n x S1) or by a circle bundle, n >= 1.

    Written out here rather than asked of the program, so that the text a
    seed gives, the long `S2xS1 # ... # S2xS1` target included, does not
    change when the program changes how it builds or prints schemas.  A test
    holds it equal to the program's own output on the code it was written
    against.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = dict.fromkeys(OPTIONAL)
    d.update({
        "schema_version": 1,
        "source_kind": kind,
        "source_genus": n,
        "source_euler": 0,
        "target": " # ".join(["S2xS1"] * n),
        "degree": 2,
        "local_degrees": [],
        "pi1_rank": n,
    })
    if kind == "product" and n <= 2:
        branch = 4 if n == 1 else 6
        d.update({
            "branch_components": branch,
            "local_degrees": [2] * branch,
            "pi1_data": ["a", "b"][:n],
            "slice_check": {"chi_source": 2 - 2 * n, "chi_target": 2, "degree": 2,
                            "local_degrees": [2] * branch},
            "note": ("pillowcase times the circle" if n == 1 else
                     "double of the pillowcase cover cut along a ball containing "
                     "two branch circles; generator images hardcoded from the "
                     "construction and certified by folding"),
        })
    elif kind == "product":
        d["unramified_stage"] = {"degree": n - 1, "chi_cover": 2 - 2 * n, "chi_base": -2}
        d["note"] = ("fiber product of the n=2 cover with the (n-1)-sheeted "
                     "unramified cover; branch-circle count undetermined")
    elif n == 1:
        d.update({
            "source_euler": 1,
            "pi1_data": ["a"],
            "slice_check": {"chi_source": 0, "chi_target": 2, "degree": 2,
                            "local_degrees": [2, 2, 2, 2]},
            "monodromy": {"matrix": [[1, 1], [0, 1]], "involution": [[-1, 0], [0, -1]]},
            "note": "mapping torus of [[1,1],[0,1]] modulo the fiberwise "
                    "-identity involution; on every fiber the quotient is the "
                    "pillowcase",
        })
    else:
        d.update({
            "source_euler": n,
            "pi1_data": ["a", "b"] if n == 2 else None,
            "fiber_sum": {"parts": [1] * n, "total": n},
            "note": "fiber sum of n copies of the Euler-number-1 bundle over T^2, "
                    "glued so the branched covering maps match up",
        })
    d["source"] = (f"Sigma_{n} x S1" if kind == "product" else
                   f"circle bundle over Sigma_{n} with Euler number {d['source_euler']}")
    return d


def _words(rng: random.Random, length: int, step: int) -> list[str]:
    """Generators of <a^L, a^(L+step), b a^L>, spelled with heavy folding.

    The subgroup is F_2 exactly when gcd(L, L+step) = 1; otherwise the folded
    graph is a cycle of gcd(L, L+step) a-edges with one b-edge, of infinite
    index.
    """
    a, b = rng.choice((("a", "b"), ("A", "b"), ("a", "B"), ("A", "B")))
    words = [a * length, a * (length + step), b + a * length]
    rng.shuffle(words)
    return words


def _text(d) -> str:
    return json.dumps(d, indent=2, sort_keys=True)


def schema_block(seed: int, block: int) -> list[tuple]:
    """Eight genuine #_n schemas, n log-uniform in 1-2e4; six genuine rank-2
    schemas whose pi1_data is a heavily folding generating set of F_2, word
    length log-uniform in 1e1-1e3; four forged or malformed schemas, kinds
    rotating through FORGERIES."""
    rng = _rng("schema-verify", seed, block)
    items = []
    for size in _strata(block, N_STRATA, 0.0, 4.301):
        n = round(size)
        d = _schema_dict(rng.choice(("product", "bundle")), n)
        items.append(("n", _text(d), _record(d, None, None)))
    for size in _strata(block, WORD_STRATA, 1.0, 3.0):
        length = round(size)
        d = _schema_dict(rng.choice(("product", "bundle")), 2)
        d["pi1_data"] = _words(rng, length, 1)
        items.append(("words", _text(d), _record(d, None, (length, 1))))
    for j in range(FORGED_PER_BLOCK):
        forgery = FORGERIES[(block * FORGED_PER_BLOCK + j) % len(FORGERIES)]
        items.append(_forged(rng, forgery))
    rng.shuffle(items)
    return items


def _record(d: dict, forgery: str | None, words: tuple[int, int] | None) -> dict:
    return {"forgery": forgery, "words": words,
            "words_max": max(map(len, d.get("pi1_data") or [""]))}


def _forged(rng: random.Random, forgery: str) -> tuple:
    n = rng.randint(1, 40)
    d = _schema_dict(rng.choice(("product", "bundle")), n)
    record = _record(d, forgery, None)
    if forgery == "target_hyperbolic":
        d["target"] = "Hyperbolic"
    elif forgery == "bogus_source_kind":
        d["source_kind"] = "bogus"
        d["degree"] = 7
        d["target"] = "Sol"
    elif forgery == "degree_changed":
        d["degree"] = rng.choice((1, 3, 4))
    elif forgery == "optional_null":
        d.update(dict.fromkeys(OPTIONAL))
        d["local_degrees"] = []
        record["words_max"] = 0
    elif forgery == "missing_keys":
        for key in rng.sample(sorted(set(d) - {"schema_version"}), 3):
            del d[key]
    elif forgery == "top_level_list":
        d = [d]
    else:
        d = _schema_dict(rng.choice(("product", "bundle")), 2)
        length = 2 * rng.randint(5, 50)
        d["pi1_data"] = _words(rng, length, 2)
        record = _record(d, None, (length, 2))
    return (forgery, _text(d), record)


BLOCKS = {
    "large-invariants": large_block,
    "schema-verify": schema_block,
}
