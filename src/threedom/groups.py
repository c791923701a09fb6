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
inverse to the vertex it reads to, and one reader walks it both to fold and
to test membership.  Each word is read through the graph folded so far,
from both ends, and only the part that cannot be read is added as a new
path; the vertices it makes clash are merged from a worklist
(Kapovich-Myasnikov).  The cost is near-linear in the total length of the
words, and a word that reads through costs one reading.

Word syntax: generators are the ASCII lower-case letters 'a'..'z', inverses
the corresponding upper-case letters; any other character is a ValueError.
Words are kept freely reduced.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod
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

def free_reduce(word: str) -> str:
    """Freely reduce a word of ASCII letters; 'aA' and 'Aa' cancel."""
    if not (word.isascii() and word.isalpha()):
        for ch in word:
            if not (ch.isascii() and ch.isalpha()):
                raise ValueError(f"invalid letter {ch!a} in word {word!r}")
    # A word with no cancelling pair is already reduced; most words are.
    if not any(x + x.swapcase() in word for x in set(word)):
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

    def reads(self, word: str) -> bool:
        """True iff the (reduced) word closes up at the base point."""
        word = free_reduce(word)
        return _read(self.adj, {}, 0, word) == (0, len(word))

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


def _read(adj: list[dict[str, int]], merged: dict[int, int], v: int,
          word: str) -> tuple[int, int]:
    """(vertex reached, letters read) following `word` from the live vertex v."""
    edges = adj[v]
    for i, ch in enumerate(word):
        nxt = edges.get(ch)
        if nxt is None:
            return v, i
        if nxt in merged:
            nxt = edges[ch] = _find(merged, nxt)
        v, edges = nxt, adj[nxt]
    return v, len(word)


def stallings_fold(words: Iterable[str],
                   alphabet: Optional[Iterable[str]] = None,
                   _rng: Optional[random.Random] = None) -> SubgroupGraph:
    """Folded base-pointed graph of the subgroup generated by the words.

    The alphabet defaults to the letters occurring in the words; a word with
    a letter outside an explicit alphabet, or with a character that is not
    an ASCII letter, is a ValueError.

    Reading fold (Kapovich-Myasnikov, "Stallings foldings and subgroups of
    free groups", J. Algebra 2002).  The words are added one at a time to a
    graph that is kept folded.  A word is first read forward from the base
    as far as edges exist, then its inverse is read from the base up to
    where the forward reading stopped; only the unread middle becomes a new
    path.  If the whole word was read, its two endpoints must be one vertex,
    which is queued as a clash; a new path whose ends meet at one vertex can
    clash there too.  Clashes are merged from a worklist in a union-find
    before the next word is read: a merge moves the smaller adjacency dict
    into the larger and queues the clashes this makes.  For E letters the
    cost is O(E log E), and a word already in the graph costs one reading.
    `_rng` pops the worklist at random positions instead of from its end;
    the result must not change (folding is confluent), which the property
    tests exercise.
    """
    reduced = [free_reduce(w) for w in words]
    if alphabet is None:
        letters = sorted({ch.lower() for w in reduced for ch in w})
    else:
        letters = sorted(set(alphabet))
        for w in reduced:
            extra = set(w.lower()).difference(letters)
            if extra:
                raise ValueError(f"letter {min(extra)!r} of word {w!r} is not "
                                 f"in the alphabet {''.join(letters)!r}")
    if not letters:
        raise ValueError("empty generator alphabet")
    if any(not (len(x) == 1 and x.isascii() and x.islower()) for x in letters):
        raise ValueError("generators must be single lower-case letters")

    # adj is the two-way adjacency of SubgroupGraph.  `merged` sends each
    # vertex folded away to the one it was merged into; ids in adj may be
    # stale, so they are resolved through it.
    adj: list[dict[str, int]] = [{}]
    merged: dict[int, int] = {}
    clashes: list[tuple[int, int]] = []
    for w in reduced:
        base = _find(merged, 0)
        u, i = _read(adj, merged, base, w)
        v, j = _read(adj, merged, base, w[::-1].swapcase()[:len(w) - i])
        mid = w[i:len(w) - j]
        if not mid:
            if u != v:
                clashes.append((u, v))
        else:
            # The path u -> fresh vertices -> v spelling the middle.  The
            # readings stopped because u has no edge for its first letter and
            # v none for the inverse of its last, so only its last edge can
            # clash: when u is v and the middle is not cyclically reduced.
            ends = [u, *range(len(adj), len(adj) + len(mid) - 1), v]
            back = mid.swapcase()
            adj[u][mid[0]] = ends[1]
            adj.extend({back[k]: ends[k], mid[k + 1]: ends[k + 2]}
                       for k in range(len(mid) - 1))
            old = adj[v].setdefault(back[-1], ends[-2])
            if old != ends[-2]:
                clashes.append((old, ends[-2]))
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
            if len(adj[a]) < len(adj[b]):
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
    keys = [k for x in letters for k in (x, x.upper())]
    order = [_find(merged, 0)]
    relabel = {order[0]: 0}
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
