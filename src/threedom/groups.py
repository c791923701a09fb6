"""Free products, kernel ranks, and Stallings graphs.

The fundamental group of a manifold with no aspherical summand is a free
product F_l * Q_{l+1} * ... * Q_k.  Projecting onto the direct product of the
finite factors gives a finite-index free kernel; its rank has an integer
closed form, verified independently by explicit coset enumeration
(`reidemeister_schreier_rank_oracle`).

Subgroups of free groups are handled through Stallings graphs: words are
wedged at a base point and folded; the folded graph detects the index of the
subgroup, and index 1 certifies surjectivity onto the free group.  A graph
is the fold's own two-way adjacency, a dict per vertex from each letter and
inverse to the vertex it reads to.  Each word is added as a closed path at
the base, and the vertices that clash are merged from a worklist
(Kapovich-Myasnikov).  The cost is near-linear in the total length of the
words.

Word syntax: generators are the ASCII lower-case letters 'a'..'z', inverses
the corresponding upper-case letters.  Words are checked as given, before
reduction: any other character, even one that cancels, is a ValueError.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, prod
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .manifold import int_digit_limit, memoized_on_value, require_int

if TYPE_CHECKING:   # only `_rng`'s annotation names it
    import random


class OrderBoundExceeded(ValueError):
    """The brute-force oracle was asked for more cosets than its bound allows."""


# ---------------------------------------------------------------------------
# Free products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeProductData:
    """The group F_l * Q_{l+1} * ... * Q_k, by free rank and finite-factor orders."""

    free_rank: int
    orders: tuple[int, ...] = ()

    def __post_init__(self):
        if require_int("free_rank", self.free_rank) < 0:
            raise ValueError("free_rank must be >= 0")
        orders = tuple(sorted(require_int("finite factor order", q)
                              for q in self.orders))
        if any(q < 2 for q in orders):
            raise ValueError("finite factor orders must be >= 2")
        object.__setattr__(self, "orders", orders)


class FreeCover(NamedTuple):
    """A finite cover with free fundamental group: rank n, covering degree m."""

    rank: int
    degree: int


@memoized_on_value
def free_cover_rank(d: FreeProductData) -> FreeCover:
    """Rank of the free kernel of the projection onto the finite factors.

    The kernel has index m = prod(orders), and Euler characteristics multiply
    under finite index, so 1 - n = m * chi with chi = 1 - l - sum (1 - 1/q_i).
    Every q_i divides m, so n = 1 + m*(l - 1) + sum (m - m/q_i) is exact.
    Both are computed per distinct order q, of multiplicity c, as q**c and
    c * (m - m/q): one big-integer step per distinct order.  Kept on the
    value; `reidemeister_schreier_rank_oracle`, which checks it, is not, so
    every certificate check enumerates its cosets.

    A degree or rank with more decimal digits than `int_digit_limit()` is
    a ValueError; a degree whose orders' bit lengths already make it that
    long is refused before any power is taken.
    """
    counts = Counter(d.orders).items()
    limit = int_digit_limit()
    # q >= 2**(q.bit_length() - 1), and 2**(4 * limit) > 10**limit.
    if limit and sum(c * (q.bit_length() - 1) for q, c in counts) > 4 * limit:
        raise _over_limit(limit)
    m = prod(pow(q, c) for q, c in counts)
    n = 1 + m * (d.free_rank - 1) + sum(c * (m - m // q) for q, c in counts)
    # 2**(3 * limit) < 10**limit, so a shorter number needs no exact test.
    big = max(m, n)
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise _over_limit(limit)
    return FreeCover(n, m)


def _over_limit(limit: int) -> ValueError:
    return ValueError(f"the free cover's degree or rank has more than {limit} "
                      "digits, the limit on integers written as text")


def nielsen_schreier_rank(rank: int, index: int) -> int:
    """Rank of an index-`index` subgroup of a free group of the given rank."""
    if rank < 0 or index < 1:
        raise ValueError("need rank >= 0 and index >= 1")
    return 1 + index * (rank - 1)


# ---------------------------------------------------------------------------
# Words in free groups
# ---------------------------------------------------------------------------

def _free_reduce(word: str, pairs: list[str]) -> str:
    """Freely reduce a checked word; `pairs` are the cancelling 'aA', 'Aa', ..."""
    # A word with no cancelling pair is already reduced; most words are.
    if not any(map(word.__contains__, pairs)):
        return word
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


# ---------------------------------------------------------------------------
# Stallings graphs
# ---------------------------------------------------------------------------

@dataclass(repr=False)
class SubgroupGraph:
    """A folded, base-pointed graph over a free-group alphabet.

    Vertices are 0..n-1 with base 0.  The graph is the fold's own two-way
    adjacency: `adj[v]` maps a letter to the vertex reached by reading it
    from v, 'a' along the a-edge leaving v and 'A' back along the a-edge
    entering v, so each edge is stored once from each end.  Instances are
    produced by `stallings_fold` already folded and canonically relabeled
    (breadth-first from the base, letters in order, the forward edge before
    the backward one), so equal subgroups give equal graphs.
    """

    alphabet: tuple[str, ...]
    adj: list[dict[str, int]]

    def vertex_count(self) -> int:
        return len(self.adj)

    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    def rank(self) -> int:
        """First Betti number edges - vertices + 1 (the graph is connected)."""
        return self.edge_count() - self.vertex_count() + 1

    def index(self) -> Optional[int]:
        """Subgroup index: the vertex count if every vertex has one edge in
        and one out per generator, else None (infinite)."""
        full = 2 * len(self.alphabet)
        return len(self.adj) if all(len(e) == full for e in self.adj) else None

    def __repr__(self):
        return (f"SubgroupGraph(alphabet={self.alphabet}, "
                f"vertices={self.vertex_count()}, edges={self.edge_count()})")


def _find(merged: dict[int, int], v: int) -> int:
    """The live vertex that v has been merged into, compressing the path."""
    root = v
    while root in merged:
        root = merged[root]
    while v != root:
        merged[v], v = root, merged[v]
    return root


def _nielsen_moves(words: list[str]) -> list[str]:
    """`stallings_fold`'s pass of Nielsen moves over freely reduced words."""
    exponents: dict[str, int] = {}
    for w in words:
        if w and w == w[0] * len(w):        # a pure power x^L or X^L
            x = w[0].lower()
            exponents[x] = gcd(exponents.get(x, 0), len(w))
    moved = [x * g for x, g in exponents.items()]
    for w in words:
        if w == w[:1] * len(w):             # empty, or a power moved above
            continue
        # w holds two generators, so trimming its first run leaves its last.
        g = exponents.get(w[0].lower())
        if g:
            body = w.lstrip(w[0])
            w = w[0] * ((len(w) - len(body)) % g) + body
        g = exponents.get(w[-1].lower())
        if g:
            body = w.rstrip(w[-1])
            w = body + w[-1] * ((len(w) - len(body)) % g)
        if w:
            moved.append(w)
    return moved


def stallings_fold(words: Iterable[str], alphabet: Iterable[str],
                   _rng: Optional[random.Random] = None) -> SubgroupGraph:
    """Folded base-pointed graph of the subgroup generated by the words.

    The alphabet is required; the first character of a word outside it,
    checked before reduction so that 'zZ' counts, is a ValueError.

    First, one pass of Nielsen moves (Lyndon-Schupp, I.2): the pure powers of
    each letter x become x^g, g the gcd of their exponents, and every other
    word loses whole multiples of g from its first and last runs of x.  Each
    move multiplies by a power of x^g, which lies in the generated subgroup,
    so the subgroup and its canonical graph stay, and x^L costs a scan.

    Worklist fold (Kapovich-Myasnikov, "Stallings foldings and subgroups of
    free groups", J. Algebra 2002).  Each word is added as a closed path at
    the base through fresh vertices, so only its first and last edges can
    clash, both at the base.  Clashes are merged from a worklist in a
    union-find before the next word is added: a merge keeps the smaller id,
    so the base stays 0, and moves the other's at most 2k entries for k
    generators, queueing the clashes this makes: O(E (k + log E)) for E
    letters.  Every letter makes a vertex, even in a word the graph reads.
    `_rng` pops the worklist at random positions instead of from its end;
    the result must not change (folding is confluent), which the property
    tests exercise.
    """
    letters = sorted(set(alphabet))
    if not letters:
        raise ValueError("empty generator alphabet")
    if any(not (len(x) == 1 and x.isascii() and x.islower()) for x in letters):
        raise ValueError("generators must be single lower-case letters")
    keys = [k for x in letters for k in (x, x.upper())]
    spelled, pairs = "".join(keys), [k + k.swapcase() for k in keys]
    reduced = []
    for w in words:
        foreign = w.lstrip(spelled)[:1]     # w's first foreign character
        if foreign.isalpha() and foreign.isascii():
            raise ValueError(f"letter {foreign.lower()!r} of word {w!r} is not "
                             f"in the alphabet {''.join(letters)!r}")
        if foreign:
            raise ValueError(f"invalid letter {foreign!a} in word {w!r}")
        reduced.append(_free_reduce(w, pairs))
    reduced = _nielsen_moves(reduced)

    # adj is the two-way adjacency of SubgroupGraph.  `merged` sends each
    # vertex folded away to the one it was merged into; ids in adj may be
    # stale, so they are resolved through it.
    adj: list[dict[str, int]] = [{}]
    merged: dict[int, int] = {}
    clashes: list[tuple[int, int]] = []
    for w in reduced:
        # The closed path base -> fresh vertices -> base spelling w.
        ends = [0, *range(len(adj), len(adj) + len(w) - 1), 0]
        back = w.swapcase()
        adj.extend({back[k]: ends[k], w[k + 1]: ends[k + 2]}
                   for k in range(len(w) - 1))
        for key, x in ((w[0], ends[1]), (back[-1], ends[-2])):
            old = adj[0].setdefault(key, x)
            if old != x:
                clashes.append((old, x))
        while clashes:
            if _rng is not None:
                k = _rng.randrange(len(clashes))
                clashes[k], clashes[-1] = clashes[-1], clashes[k]
            a, b = clashes.pop()
            if a in merged:
                a = _find(merged, a)
            if b in merged:
                b = _find(merged, b)
            if a == b:
                continue
            if a > b:       # the smaller id stays, so the base stays 0
                a, b = b, a
            merged[b] = a
            edges = adj[a]
            for key, x in adj[b].items():
                old = edges.setdefault(key, x)
                if old != x:
                    clashes.append((old, x))
            adj[b] = {}

    # Relabel the live vertices canonically by BFS from the base: letters
    # in order, the forward edge before the backward one.
    order = [0]
    relabel = {0: 0}
    for v in order:
        edges = adj[v]
        for k in keys:
            if k in edges:
                w = edges[k] = _find(merged, edges[k])
                if w not in relabel:
                    relabel[w] = len(order)
                    order.append(w)
    return SubgroupGraph(tuple(letters), [
        {k: relabel[w] for k, w in adj[v].items()} for v in order])


# ---------------------------------------------------------------------------
# Brute-force kernel rank oracle
# ---------------------------------------------------------------------------

def reidemeister_schreier_rank_oracle(d: FreeProductData,
                                      max_order: int = 10_000) -> int:
    """Rank of the free kernel, by explicit coset enumeration.

    The finite factors are realized as cyclic groups of the given orders; the
    closed rank formula depends only on the orders, so this loses nothing.
    The m cosets of the kernel are the elements of Z_{q_1} x ... x Z_{q_k},
    indexed in mixed radix (coordinate j has stride q_1 ... q_{j-1}).  On the
    Schreier graph (one edge per coset per generator of F_l and of each
    cyclic factor) each free generator is a loop, and each cyclic generator
    traces cycles that bound the lifted relator disks x_j^{q_j}; dropping one
    edge per such cycle leaves a graph homotopy equivalent to the kernel's
    classifying space, whose first Betti number edges - vertices + 1 is the
    rank.  Every cycle is walked coset by coset, never counted in closed form.
    """
    m = 1
    for q in d.orders:   # every q >= 2, so stop once past the bound
        if m > max_order:
            break
        m *= q
    if m > max_order:
        raise OrderBoundExceeded(f"coset enumeration exceeds bound {max_order}")
    edges = d.free_rank * m
    stride = 1
    for q in d.orders:
        span = stride * q
        seen = bytearray(m)
        for start in range(m):
            if seen[start]:
                continue
            # Step this factor's coordinate by one: add the stride, wrapping
            # within the block of cosets that agree with `start` above it.
            block = start - start % span
            v, length = start, 0
            while not seen[v]:
                seen[v] = 1
                length += 1
                v = block + (v - block + stride) % span
            # The relator disk fills this cycle: keep it as a path.
            edges += length - 1
        stride = span
    return edges - m + 1
