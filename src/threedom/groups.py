"""Free products, kernel ranks, and Stallings graphs.

The fundamental group of a manifold with no aspherical summand is a free
product F_l * Q_{l+1} * ... * Q_k.  Projecting onto the direct product of the
finite factors gives a finite-index free kernel; its rank has an integer
closed form, verified independently by explicit coset enumeration
(`reidemeister_schreier_rank_oracle`).

Subgroups of free groups are handled through Stallings graphs: words are
wedged at a base point and folded; the folded graph detects the index of the
subgroup, and index 1 certifies surjectivity onto the free group.  Folding
runs off a worklist of clashing edges (Kapovich-Myasnikov), so its cost is
near-linear in the total length of the words.

Word syntax: generators are lower-case letters 'a'..'z', inverses the
corresponding upper-case letters.  Words are kept freely reduced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod
from typing import Iterable, NamedTuple, Optional


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
        if self.free_rank < 0:
            raise ValueError("free_rank must be >= 0")
        orders = tuple(sorted(int(q) for q in self.orders))
        if any(q < 2 for q in orders):
            raise ValueError("finite factor orders must be >= 2")
        object.__setattr__(self, "orders", orders)


class FreeCover(NamedTuple):
    """A finite cover with free fundamental group: rank n, covering degree m."""

    rank: int
    degree: int


def free_cover_rank(d: FreeProductData) -> FreeCover:
    """Rank of the free kernel of the projection onto the finite factors.

    The kernel has index m = prod(orders), and Euler characteristics multiply
    under finite index, so 1 - n = m * chi with chi = 1 - l - sum (1 - 1/q_i).
    Every q_i divides m, so n = 1 + m*(l - 1) + sum (m - m/q_i) is exact.
    """
    m = prod(d.orders)
    n = 1 + m * (d.free_rank - 1) + sum(m - m // q for q in d.orders)
    return FreeCover(n, m)


def nielsen_schreier_rank(rank: int, index: int) -> int:
    """Rank of an index-`index` subgroup of a free group of the given rank."""
    if rank < 0 or index < 1:
        raise ValueError("need rank >= 0 and index >= 1")
    return 1 + index * (rank - 1)


# ---------------------------------------------------------------------------
# Words in free groups
# ---------------------------------------------------------------------------

def free_reduce(word: str) -> str:
    """Freely reduce a word; 'aA' and 'Aa' cancel."""
    out: list[str] = []
    for ch in word:
        if not ch.isalpha():
            raise ValueError(f"invalid letter {ch!r} in word {word!r}")
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


# ---------------------------------------------------------------------------
# Stallings graphs
# ---------------------------------------------------------------------------

class SubgroupGraph:
    """A folded, base-pointed graph over a free-group alphabet.

    Vertices are 0..n-1 with base 0; `out[v][x]` is the endpoint of the edge
    labeled x leaving v.  Instances are produced by `stallings_fold` already
    folded and canonically relabeled (breadth-first from the base, edges in
    alphabetical order), so equal subgroups give equal graphs.
    """

    def __init__(self, alphabet: tuple[str, ...], out: dict[int, dict[str, int]]):
        self.alphabet = tuple(alphabet)
        self.out = out
        self.inc: dict[int, dict[str, int]] = {v: {} for v in out}
        for v, edges in out.items():
            for x, w in edges.items():
                self.inc[w][x] = v
        self.base = 0

    def vertex_count(self) -> int:
        return len(self.out)

    def edge_count(self) -> int:
        return sum(len(edges) for edges in self.out.values())

    def rank(self) -> int:
        """First Betti number edges - vertices + 1 (the graph is connected)."""
        return self.edge_count() - self.vertex_count() + 1

    def is_complete(self) -> bool:
        """Every vertex has one outgoing and one incoming edge per generator."""
        return all(
            x in self.out[v] and x in self.inc[v]
            for v in self.out for x in self.alphabet
        )

    def index(self) -> Optional[int]:
        """Subgroup index: the vertex count if complete, else None (infinite)."""
        return self.vertex_count() if self.is_complete() else None

    def reads(self, word: str) -> bool:
        """True iff the (reduced) word closes up at the base point."""
        v = self.base
        for ch in free_reduce(word):
            if ch.islower():
                if ch not in self.out[v]:
                    return False
                v = self.out[v][ch]
            else:
                x = ch.lower()
                if x not in self.inc[v]:
                    return False
                v = self.inc[v][x]
        return v == self.base

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubgroupGraph)
                and self.alphabet == other.alphabet and self.out == other.out)

    def __repr__(self):
        return (f"SubgroupGraph(alphabet={self.alphabet}, "
                f"vertices={self.vertex_count()}, edges={self.edge_count()})")


def stallings_fold(words: Iterable[str],
                   alphabet: Optional[Iterable[str]] = None,
                   _rng: Optional[random.Random] = None) -> SubgroupGraph:
    """Folded base-pointed graph of the subgroup generated by the words.

    The alphabet defaults to the letters occurring in the words; a word with
    a letter outside an explicit alphabet is a ValueError.

    Worklist fold (Kapovich-Myasnikov, "Stallings foldings and subgroups of
    free groups", J. Algebra 2002): vertices merge in a union-find, each
    class keeps one adjacency dict keyed by (letter, direction), and a second
    edge at a taken key - a clash - queues its endpoint to be merged with the
    first.  A merge moves the smaller dict into the larger and queues the
    clashes this makes.  For E letters in the words the cost is O(E log E),
    where rescanning every edge per fold was O(E^2).  `_rng` pops the
    worklist at random positions instead of from its end; the result must
    not change (folding is confluent), which the property tests exercise.
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
    if any(not (len(x) == 1 and x.islower()) for x in letters):
        raise ValueError("generators must be single lower-case letters")

    # adj[v] maps (x, 1) to the head of the x-edge leaving v and (x, -1) to
    # the tail of the x-edge entering it; ids may be stale, so read via find.
    adj: list[dict[tuple[str, int], int]] = [{}]
    parent = [0]
    clashes: list[tuple[int, int]] = []

    def attach(v: int, key: tuple[str, int], w: int) -> None:
        old = adj[v].setdefault(key, w)
        if old != w:
            clashes.append((old, w))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # Wedge of loops at vertex 0, one loop per word.
    for w in reduced:
        prev = 0
        for i, ch in enumerate(w):
            nxt = 0 if i == len(w) - 1 else len(adj)
            if nxt:
                adj.append({})
                parent.append(nxt)
            tail, head = (prev, nxt) if ch.islower() else (nxt, prev)
            attach(tail, (ch.lower(), 1), head)
            attach(head, (ch.lower(), -1), tail)
            prev = nxt

    while clashes:
        if _rng is not None:
            i = _rng.randrange(len(clashes))
            clashes[i], clashes[-1] = clashes[-1], clashes[i]
        a, b = map(find, clashes.pop())
        if a != b:
            if len(adj[a]) < len(adj[b]):
                a, b = b, a
            parent[b] = a
            for key, w in adj[b].items():
                attach(a, key, w)
            adj[b] = {}

    # Relabel canonically by BFS from the base: letters in order, the
    # out-edge before the in-edge.
    order = [find(0)]
    relabel = {order[0]: 0}
    for v in order:
        for key in ((x, d) for x in letters for d in (1, -1)):
            if key in adj[v]:
                w = find(adj[v][key])
                if w not in relabel:
                    relabel[w] = len(order)
                    order.append(w)
    out = {relabel[v]: {x: relabel[find(adj[v][(x, 1)])]
                        for x in letters if (x, 1) in adj[v]}
           for v in order}
    return SubgroupGraph(tuple(letters), out)


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
    m = prod(d.orders)
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
