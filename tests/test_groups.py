import random
import re
import sys
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from threedom import groups
from threedom.groups import (
    FreeProductData,
    OrderBoundExceeded,
    SubgroupGraph,
    free_cover_rank,
    nielsen_schreier_rank,
    reidemeister_schreier_rank_oracle,
    stallings_fold,
)


# ---------------------------------------------------------------------------
# Free-product kernel ranks
# ---------------------------------------------------------------------------

def test_free_cover_rank_anchored_cases():
    # RP^3 is double-covered by S^3
    assert free_cover_rank(FreeProductData(0, (2,))) == (0, 2)
    # RP^3 # RP^3 is 4-fold covered by S^2 x S^1
    assert free_cover_rank(FreeProductData(0, (2, 2))) == (1, 4)
    assert free_cover_rank(FreeProductData(1, (2,))) == (2, 2)
    # The Poincare sphere is covered by S^3
    assert free_cover_rank(FreeProductData(0, (120,))) == (0, 120)


def test_free_cover_rank_is_one_minus_m_chi():
    # The integer closed form against 1 - n = m * chi with exact rationals,
    # chi = 1 - l - sum (1 - 1/q), on orders of up to 40 digits.
    rng = random.Random(7)
    for _ in range(500):
        d = FreeProductData(rng.randint(0, 4), tuple(
            rng.randint(2, 10 ** rng.randint(1, 40))
            for _ in range(rng.randint(0, 4))))
        chi = 1 - d.free_rank - sum(1 - Fraction(1, q) for q in d.orders)
        m = prod(d.orders)
        assert free_cover_rank(d) == (1 - m * chi, m), d


@settings(derandomize=True, max_examples=200)
@given(st.integers(0, 3), st.lists(st.integers(2, 50), max_size=40))
def test_free_cover_rank_per_distinct_order_equals_per_factor_sum(l, orders):
    m = prod(orders)
    n = 1 + m * (l - 1) + sum(m - m // q for q in orders)
    assert free_cover_rank(FreeProductData(l, tuple(orders))) == (n, m)


def test_free_cover_rank_pure_free():
    for l in range(6):
        assert free_cover_rank(FreeProductData(l)) == (l, 1)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer string conversion limit")
def test_free_cover_rank_refuses_numbers_over_the_digit_limit(monkeypatch):
    limit = sys.get_int_max_str_digits()
    over = re.escape(f"the free cover's degree or rank has more than {limit} "
                     "digits, the limit on integers written as text")
    # A degree of exactly `limit` digits is kept, one more is refused.
    q = 10**limit - 1
    assert free_cover_rank(FreeProductData(0, (q,))) == (0, q)
    with pytest.raises(ValueError, match=over):
        free_cover_rank(FreeProductData(0, (q + 1,)))
    # So is a rank of 2 * 10**limit, on a degree of `limit` digits.
    with pytest.raises(ValueError, match=over):
        free_cover_rank(FreeProductData(20, (10**(limit - 1),)))
    # Orders whose bit lengths settle it are refused before any product.
    monkeypatch.setattr(groups, "prod", lambda _: pytest.fail("prod ran"))
    with pytest.raises(ValueError, match=over):
        free_cover_rank(FreeProductData(0, (2,) * (4 * limit + 1)))


def test_nielsen_schreier():
    for n in range(2, 11):
        assert nielsen_schreier_rank(2, n - 1) == n
    assert nielsen_schreier_rank(1, 5) == 1
    assert nielsen_schreier_rank(3, 2) == 5
    assert nielsen_schreier_rank(0, 1) == 0
    for rank, index in ((-1, 1), (2, 0)):
        with pytest.raises(ValueError, match=r"need rank >= 0 and index >= 1"):
            nielsen_schreier_rank(rank, index)


def test_nielsen_schreier_index_two_of_f3_by_folding():
    # Independent oracle for rank 5: an explicit index-2 subgroup of F(a,b,c),
    # generated by the Schreier generators of the mod-2 a-count homomorphism.
    graph = stallings_fold(["aa", "b", "c", "abA", "acA"], alphabet="abc")
    assert graph.index() == 2
    assert graph.rank() == 5 == nielsen_schreier_rank(3, 2)


# ---------------------------------------------------------------------------
# Words and folding
# ---------------------------------------------------------------------------

_PAIRS = ["aA", "Aa", "bB", "Bb", "cC", "Cc"]    # the cancelling pairs over abc


def test_free_reduce():
    assert groups._free_reduce("aA", _PAIRS) == ""
    assert groups._free_reduce("abBA", _PAIRS) == ""
    assert groups._free_reduce("abAB", _PAIRS) == "abAB"


def test_fold_whole_group():
    g = stallings_fold(["a", "b"], alphabet="ab")
    assert g.vertex_count() == 1
    assert g.edge_count() == 2
    assert g.index() == 1


def test_graphs_are_unhashable_records_equal_per_subgroup():
    g = stallings_fold(["aa", "b", "abA"], alphabet="ab")
    assert g == stallings_fold(["b", "abA", "aa"], alphabet="ab")
    assert g != stallings_fold(["aa", "b", "abA"], alphabet="abc")
    assert g != stallings_fold(["a", "b"], alphabet="ab")
    assert g != (g.alphabet, g.adj)
    assert repr(g) == "SubgroupGraph(alphabet=('a', 'b'), vertices=2, edges=4)"
    with pytest.raises(TypeError):
        hash(g)


def test_fold_index_two_subgroup():
    g = stallings_fold(["aa", "b", "abA"], alphabet="ab")
    assert g.vertex_count() == 2
    assert g.index() == 2
    assert g.rank() == nielsen_schreier_rank(2, 2) == 3


def test_fold_commutator_infinite_index():
    g = stallings_fold(["abAB"], alphabet="ab")
    assert g.index() is None
    # Two vertices: the base has no b-edge out, the other no b-edge in.
    g = stallings_fold(["aa", "ab"], alphabet="ab")
    assert (g.vertex_count(), g.edge_count()) == (2, 3)
    assert g.index() is None


def _member(w, words, alphabet):
    """w lies in the subgroup the words generate: folded graphs are
    canonical, so adding a member leaves the graph as it was."""
    return (stallings_fold([*words, w], alphabet=alphabet)
            == stallings_fold(words, alphabet=alphabet))


def test_fold_membership_reading():
    words = ["aa", "b", "abA"]
    assert _member("aa", words, "ab")
    assert _member("babAB", words, "ab")   # even a-count, so in the subgroup
    assert not _member("a", words, "ab")
    # Reading stops at the base point, on the missing b-edge: not a member.
    assert not _member("ab", ["a"], "ab")


def test_fold_empty_alphabet_rejected():
    with pytest.raises(ValueError, match="empty generator alphabet"):
        stallings_fold([], alphabet="")


def test_fold_rejects_generators_that_are_not_single_letters():
    with pytest.raises(ValueError,
                       match="^generators must be single lower-case letters$"):
        stallings_fold(["a"], alphabet=["a", "bc"])


@pytest.mark.parametrize("args, message", [
    ((-1,), "free_rank must be >= 0"),
    ((0, (1,)), "finite factor orders must be >= 2"),
])
def test_free_product_data_rejects_bad_ranks_and_orders(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FreeProductData(*args)


def _rescan_fold(words, alphabet):
    """Reference fold: rescan every edge, merge one clashing pair, repeat.

    Quadratic in the number of letters, and kept only as an oracle for the
    worklist fold; the result is relabeled by the same canonical BFS.
    """
    letters = sorted(set(alphabet))
    edges, fresh = [], 1
    for w in (groups._free_reduce(v, _PAIRS) for v in words):
        prev = 0
        for i, ch in enumerate(w):
            nxt = 0 if i == len(w) - 1 else fresh
            fresh += nxt != 0
            edges.append((prev, ch, nxt) if ch.islower()
                         else (nxt, ch.lower(), prev))
            prev = nxt
    parent = list(range(fresh))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    while True:
        seen, clash = {}, None
        for u, x, v in edges:
            u, v = find(u), find(v)
            for key, other in (((u, x, 1), v), ((v, x, -1), u)):
                if seen.setdefault(key, other) != other:
                    clash = (seen[key], other)
        if clash is None:
            break
        parent[max(clash)] = min(clash)
    nbr = {}
    for u, x, v in edges:
        nbr[(find(u), x, 1)], nbr[(find(v), x, -1)] = find(v), find(u)
    order = [find(0)]
    for v in order:
        for x in letters:
            for d in (1, -1):
                w = nbr.get((v, x, d))
                if w is not None and w not in order:
                    order.append(w)
    return SubgroupGraph(tuple(letters), [
        {x if d == 1 else x.upper(): order.index(nbr[(v, x, d)])
         for x in letters for d in (1, -1) if (v, x, d) in nbr}
        for v in order])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.just("abc"[:r]),
    st.lists(st.text("abc"[:r] + "ABC"[:r], max_size=12), min_size=1,
             max_size=5))),
    st.integers(0, 2 ** 32))
def test_worklist_fold_matches_rescan_fold(case, seed):
    alphabet, words = case
    reference = _rescan_fold(words, alphabet)
    g = stallings_fold(words, alphabet=alphabet)
    assert g == reference
    assert all(_member(w, words, alphabet) for w in words)
    assert stallings_fold(words, alphabet=alphabet,
                          _rng=random.Random(seed)) == reference


@st.composite
def _read_through_words(draw):
    """Words that the graph of the words before them already reads:
    repeats, products, overruns (a word then a prefix of one, as a^L then
    a^(L+1)) and cyclic conjugates of earlier words.  The fold adds each as
    a closed path at the base, and the merge loop folds it away."""
    alphabet = "abc"[:draw(st.integers(1, 3))]
    letters = alphabet + alphabet.upper()
    words = draw(st.lists(st.text(letters, max_size=8), min_size=1,
                          max_size=3))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ["repeat", "product", "overrun", "conjugate"]))
        w = draw(st.sampled_from(words))
        other = draw(st.sampled_from(words))
        if kind == "product":
            w += other
        elif kind == "overrun":
            w += other[:draw(st.integers(0, len(other)))]
        elif kind == "conjugate":
            k = draw(st.integers(0, len(w)))
            w = w[k:] + w[:k]
        words.append(w)
    return alphabet, words


@settings(max_examples=300, deadline=None)
@given(_read_through_words(), st.integers(0, 2 ** 32))
def test_read_through_words_fold_like_rescan_fold(case, seed):
    alphabet, words = case
    reference = _rescan_fold(words, alphabet)
    g = stallings_fold(words, alphabet=alphabet)
    assert g == reference
    assert all(_member(w, words, alphabet) for w in words)
    assert stallings_fold(words, alphabet=alphabet,
                          _rng=random.Random(seed)) == reference
    permuted = words[:]
    random.Random(seed).shuffle(permuted)
    assert stallings_fold(permuted, alphabet=alphabet) == reference


@st.composite
def _power_rich_words(draw):
    """Pure powers x^k or X^k (k <= 40, up to 3 per letter) among words with
    long first and last runs: the words the fold's Nielsen pass changes."""
    alphabet = "abc"[:draw(st.integers(1, 3))]
    letters = alphabet + alphabet.upper()
    runs = st.integers(0, 40)
    words = [draw(st.sampled_from([x, x.upper()])) * draw(runs)
             for x in alphabet for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        head, tail = (draw(st.sampled_from(letters)) for _ in range(2))
        words.append(head * draw(runs) + draw(st.text(letters, max_size=4))
                     + tail * draw(runs))
    return alphabet, draw(st.permutations(words))


@settings(max_examples=150, deadline=None)
@given(_power_rich_words(), st.integers(0, 2 ** 32))
# The pass trims ab's first run by the gcd 1 of a's powers and leaves b,
# a word whose last run is all of it.
@example(("ab", ["a", "b", "ab"]), 0)
def test_power_rich_words_fold_like_rescan_fold(case, seed):
    alphabet, words = case
    reference = _rescan_fold(words, alphabet)
    assert stallings_fold(words, alphabet=alphabet) == reference
    assert stallings_fold(words, alphabet=alphabet,
                          _rng=random.Random(seed)) == reference
    permuted = words[:]
    random.Random(seed).shuffle(permuted)
    assert stallings_fold(permuted, alphabet=alphabet) == reference


def test_long_words_fold_in_near_linear_time():
    length = 2000
    start = time.perf_counter()
    g = stallings_fold(["a" * length, "a" * (length + 1), "b" + "a" * length],
                       alphabet="ab")
    assert time.perf_counter() - start < 1.0
    assert g.vertex_count() == 1
    assert g.index() == 1


_W = "ab" * 250 + "aB" * 250     # 1000 letters, not a pure power


@pytest.mark.parametrize("words, generators", [
    pytest.param(["ab" * 10_000, "ab" * 10_001, "b" + "ab" * 10_000],
                 ["a", "b"], id="ab-powers"),
    pytest.param([_W] * 50 + [_W * 2, _W[::-1].swapcase()], [_W],
                 id="read-through"),
])
def test_words_the_nielsen_pass_keeps_fold_in_near_linear_time(words,
                                                              generators):
    # No pure power, so the pass leaves these words whole, and the merge
    # loop folds their closed paths at the base: the 2L-cycle of (ab)^L
    # collapses, and each copy of w folds onto the first.
    start = time.perf_counter()
    g = stallings_fold(words, alphabet="ab")
    assert time.perf_counter() - start < 1.0
    assert g == stallings_fold(generators, alphabet="ab")


@pytest.mark.parametrize("length", [2, 10, 500])
def test_common_divisor_two_folds_to_a_two_cycle(length):
    # gcd(L, L+2) = 2: an a-cycle of length 2 with a b-loop at the base.
    g = stallings_fold(["a" * length, "a" * (length + 2), "b" + "a" * length],
                       alphabet="ab")
    assert g.vertex_count() == 2
    assert g.index() is None


@pytest.mark.parametrize("words", [["a", "b", "z"], ["a", "bZ"], ["a", "zZ"]])
def test_letters_outside_the_alphabet_rejected(words):
    with pytest.raises(ValueError, match="'z'"):
        stallings_fold(words, alphabet=["a", "b"])


# U+212A KELVIN SIGN lower-cases to 'k', and 'ß' and 'é' are lower-case
# letters to str.isalpha; only ASCII letters are generators.
@pytest.mark.parametrize("letter", ["\u212a", "\u00e9", "\u00df", "\uff41"])
@pytest.mark.parametrize("alphabet", ["abk"])
def test_non_ascii_letters_rejected(letter, alphabet):
    word = "ab" + letter
    message = f"invalid letter {ascii(letter)} in word {word!r}"
    with pytest.raises(ValueError) as exc:
        stallings_fold(["a", word], alphabet=alphabet)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Brute-force rank oracle
# ---------------------------------------------------------------------------

def test_oracle_anchored_cases():
    assert reidemeister_schreier_rank_oracle(FreeProductData(0, (2,))) == 0
    assert reidemeister_schreier_rank_oracle(FreeProductData(0, (2, 2))) == 1
    assert reidemeister_schreier_rank_oracle(FreeProductData(2)) == 2


def test_oracle_matches_formula():
    # Near the default bound of 10^4 cosets: one long cycle, many factors.
    for l in range(3):
        for orders in [(9973,), (2, 3, 5, 7, 11)]:
            d = FreeProductData(l, orders)
            assert reidemeister_schreier_rank_oracle(d) \
                == free_cover_rank(d).rank


def test_oracle_bound():
    with pytest.raises(OrderBoundExceeded):
        reidemeister_schreier_rank_oracle(FreeProductData(0, (101, 101)),
                                          max_order=10_000)
    d = FreeProductData(1, (100, 100))
    assert reidemeister_schreier_rank_oracle(d, max_order=10_000) \
        == free_cover_rank(d).rank
    with pytest.raises(OrderBoundExceeded, match="exceeds bound 9999"):
        reidemeister_schreier_rank_oracle(d, max_order=9_999)
    # No finite factors: one coset, which a bound of 1 admits and 0 does not.
    assert reidemeister_schreier_rank_oracle(FreeProductData(3),
                                             max_order=1) == 3
    with pytest.raises(OrderBoundExceeded, match="exceeds bound 0"):
        reidemeister_schreier_rank_oracle(FreeProductData(3), max_order=0)


def test_oracle_bound_reached_with_a_factor_left():
    # The running product equals the bound after two factors; the third
    # would make 10^6 cosets.
    with pytest.raises(OrderBoundExceeded, match="exceeds bound 10000"):
        reidemeister_schreier_rank_oracle(FreeProductData(0, (100, 100, 100)),
                                          max_order=10_000)


def test_oracle_bound_stops_multiplying_at_the_bound():
    # 2**200000 is never formed: the running product passes 10^4 at the
    # 14th factor.
    d = FreeProductData(0, (2,) * 200_000)
    start = time.perf_counter()
    with pytest.raises(OrderBoundExceeded, match="exceeds bound 10000"):
        reidemeister_schreier_rank_oracle(d, max_order=10_000)
    assert time.perf_counter() - start < 0.1
