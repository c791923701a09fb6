"""A fourth route: the benchmark's reference checker, loaded by path.

`perfbench/reference.py` imports nothing from the program; it decides the
four queries straight from the paper's statements.  Here it judges inputs
well beyond the sweep's bounds: fiber orders and obstructions up to 10**6,
base genus up to 50 and up to 30 summands.  The spherical orders of one
input multiply to at most 10**4, which bounds the free cover's rank.
"""

import importlib.util
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from threedom import cli
from threedom.manifold import ParseError, parse_manifold
from threedom.witness import FiniteCoverWitness

_spec = importlib.util.spec_from_file_location(
    "reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

_MARKERS = {("s2s1",): "S2xS1", ("hyp",): "Hyperbolic", ("sol",): "Sol",
            ("other",): "OtherAspherical"}


def _coprime(alpha: int, beta: int) -> tuple[int, int]:
    """(alpha, beta'), beta' the least number from beta on that is prime to
    alpha."""
    while gcd(alpha, beta) != 1:
        beta += 1
    return alpha, beta


def _within_budget(pieces: list) -> tuple:
    """`pieces` without each spherical one whose order would take the
    product of the orders kept over 10**4."""
    budget, kept = 10**4, []
    for p in pieces:
        if p[0] == "sph":
            if p[1] > budget:
                continue
            budget //= p[1]
        kept.append(p)
    return tuple(kept)


# Small values as well as large ones, so that spherical Seifert data (which
# both sides reject) and the trivial S2 bundle (which both rewrite) occur.
_number = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
_fiber = st.builds(_coprime, st.one_of(st.integers(2, 6), st.integers(2, 10**6)),
                   _number)


def _seifert(genus):
    return st.builds(lambda g, b, fibers: ("sfs", g, b, tuple(fibers)),
                     genus, _number, st.lists(_fiber, max_size=4))


_spherical = st.builds(lambda q: ("sph", q), st.integers(2, 10**4))
_piece = st.one_of(_seifert(st.integers(0, 50)), _spherical,
                   st.sampled_from(sorted(_MARKERS)))


def _sums(piece):
    return st.integers(0, 30).flatmap(
        lambda n: st.lists(piece, min_size=n, max_size=n)).map(_within_budget)


# One Seifert piece, for its finite cover, over genus 0 often, for the
# rejected and rewritten ones; sums of up to 30 summands; and such sums of
# S2xS1 and spherical pieces, for their free covers.
_pieces = st.one_of(
    st.tuples(_seifert(st.one_of(st.just(0), st.integers(0, 50)))),
    _sums(_piece), _sums(st.one_of(_spherical, st.just(("s2s1",)))))


def _spell(piece) -> str:
    if piece[0] == "sph":
        return f"Spherical({piece[1]})"
    if piece[0] == "sfs":
        _, g, b, fibers = piece
        return f"SFS(g={g}; b={b}" + "".join(
            f"{sep} ({a},{beta})" for sep, (a, beta)
            in zip([";"] + [","] * len(fibers), fibers)) + ")"
    return _MARKERS[piece]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_pieces)
def test_the_program_agrees_with_the_reference(pieces):
    text = " # ".join(map(_spell, pieces)) or "S3"
    try:
        norm = reference.normalize(pieces)
    except reference.Rejected:
        with pytest.raises(ParseError):
            cli.evaluate_corpus_entry(text)
        return
    assert cli.evaluate_corpus_entry(text) == reference.expected_verdicts(norm)
    m = parse_manifold(text)
    for name in ("product", "ntbundle", "anybundle"):
        w = cli.QUERIES[name](m).witness
        if isinstance(w, FiniteCoverWitness):
            assert reference.check_finite_cover(
                norm[0], w.kind, w.base_genus, w.euler, w.degree) == []
        elif w is not None:
            assert (w.free_rank, w.cover_degree) == reference.free_rank(norm)
