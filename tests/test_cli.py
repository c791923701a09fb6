import contextlib
import dataclasses
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from threedom import cli, engine, groups
from threedom.cli import load_corpus, run
from threedom.groups import free_cover_rank
from threedom.manifold import ParseError, SeifertData, parse_manifold
from threedom.witness import (
    CONSTRUCTIONS,
    bundle_branched_cover_schema,
    product_branched_cover_schema,
    schema_from_dict,
    schema_to_dict,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_yes(capsys):
    code, out, _ = invoke(capsys, "decide", "product", "SFS(g=1;b=0)")
    assert code == 0
    assert out.startswith("YES (Thm5.1(1)")


def test_decide_no_still_exit_zero(capsys):
    code, out, _ = invoke(capsys, "decide", "product", "Hyperbolic")
    assert code == 0
    assert out.startswith("NO")


def test_decide_rejects_finite_group(capsys):
    code, _, err = invoke(capsys, "decide", "presentable", "Spherical(120)")
    assert code == 1
    assert "finite" in err


def test_parse_error_exit_one(capsys):
    code, _, err = invoke(capsys, "decide", "product", "SFS(g=1)")
    assert code == 1
    assert "error" in err


def test_help_exits_zero(capsys):
    code, out, err = invoke(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: threedom ")


def test_unknown_command_exit_one(capsys):
    code, _, err = invoke(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err


def test_run_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    calls = [["decide", "product", "S2xS1"], ["--help"], ["frobnicate"],
             ["--json", "classify", "Sol"], ["decide", "product", "S2xS1"]]
    assert [invoke(capsys, *argv)[0] for argv in calls] == [0, 0, 1, 0, 0]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)


@pytest.mark.parametrize("argv, command, message", [
    ([], None, "the following arguments are required: command"),
    (["decide"], "decide",
     "the following arguments are required: query, manifold"),
    (["--max-order", "x", "decide", "product", "S3"], None,
     "argument --max-order: invalid int value: 'x'"),
    (["--max-order", "-5", "witness", "product", "Spherical(2)#Spherical(3)"],
     None, "argument --max-order: must be >= 0, not -5"),
    (["decide", "product", "S3", "extra"], None,
     "unrecognized arguments: extra"),
])
def test_usage_error_output(capsys, argv, command, message):
    # The usage of the parser that failed, then one error line, all on
    # stderr, and exit 1.
    parser = cli.build_parser()
    if command is not None:
        parser = parser._subparsers._group_actions[0].choices[command]
    assert invoke(capsys, *argv) == (
        1, "", f"{parser.format_usage()}{parser.prog}: error: {message}\n")


def test_output_determinism(capsys):
    first = invoke(capsys, "--json", "decide", "ntbundle",
                   "SFS(g=0;b=1;(2,1),(3,1),(7,1))")
    second = invoke(capsys, "--json", "decide", "ntbundle",
                    "SFS(g=0;b=1;(2,1),(3,1),(7,1))")
    assert first == second
    assert first[0] == 0


def test_json_report_shape(capsys):
    code, out, _ = invoke(capsys, "--json", "decide", "product",
                          "Spherical(2) # Spherical(2)")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["verdict"] is True
    assert payload["witness"]["type"] == "inessential"
    assert payload["witness"]["cover_degree"] == 4


def test_classify(capsys):
    code, out, _ = invoke(capsys, "classify", "SFS(g=1;b=-1) ")
    assert code == 0
    assert out.splitlines()[1] == ("  SFS(g=1; b=-1) (multiplicity 1): "
                                   "geometry Nil, e = 1, chi_orb = 0")
    code, out, _ = invoke(capsys, "classify", "S3")
    assert code == 0
    assert out == "input (normalized): S3\n  (empty connected sum: S^3)\n"


def test_classify_groups_the_summands(capsys):
    # One line and one JSON entry per distinct piece, not per summand.
    text = " # ".join(["S2xS1"] * 10**5 + ["Spherical(3)"] * 2)
    code, out, _ = invoke(capsys, "classify", text)
    assert code == 0
    assert out.splitlines()[1:] == [
        "  Spherical(3) (multiplicity 2): geometry S3geom",
        "  S2xS1 (multiplicity 100000): geometry S2xR"]
    code, out, _ = invoke(capsys, "--json", "classify", text)
    assert code == 0
    assert json.loads(out)["pieces"] == [
        {"piece": "Spherical(3)", "multiplicity": 2, "geometry": "S3geom"},
        {"piece": "S2xS1", "multiplicity": 10**5, "geometry": "S2xR"}]


def test_witness_command(capsys):
    code, out, _ = invoke(capsys, "witness", "product", "S2xS1")
    assert code == 0
    assert "check pi1_surjective: pass" in out
    assert "check rank_oracle: pass" in out


def test_witness_command_checks_finite_cover(capsys):
    code, out, _ = invoke(capsys, "--json", "witness", "ntbundle",
                          "SFS(g=0; b=-3; (2,1),(4,1),(4,1))")
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"]["degree"] == 4
    assert [(c["name"], c["passed"]) for c in payload["checks"]] == [
        ("single_seifert_piece", True),
        ("lcm_divides_degree", True), ("riemann_hurwitz", True),
        ("euler_scaling", True), ("kind_matches_euler", True)]


def test_faulty_finite_cover_exits_two(capsys, monkeypatch):
    # A degree-1 cover cannot unwrap the order-3 fibers.
    monkeypatch.setattr(engine, "seifert_cover_parameters",
                        lambda s: (1, 1, 0, "existence-backed"))
    text = "SFS(g=0; b=-1; (3,1),(3,1),(3,1))"
    code, _, err = invoke(capsys, "decide", "product", text)
    assert code == 2
    assert "lcm_divides_degree" in err
    code, out, _ = invoke(capsys, "witness", "product", text)
    assert code == 2
    assert "check lcm_divides_degree: FAIL" in out


@pytest.mark.parametrize("parameters, check", [
    ((1, 1, 1, "explicit"), "euler_scaling"),          # a product with e' = 1
    ((1, 0, 0, "explicit"), "lcm_divides_degree"),     # a degree-0 cover
])
def test_malformed_finite_cover_is_an_internal_failure(capsys, monkeypatch,
                                                       parameters, check):
    # The witness record accepts the values; its verifier fails them, and
    # the CLI reports an internal fault (exit 2), not a rejected input.
    monkeypatch.setattr(engine, "seifert_cover_parameters",
                        lambda s: parameters)
    for command in ("decide", "witness"):
        code, _, err = invoke(capsys, command, "product", "SFS(g=1; b=0)")
        assert code == 2
        assert f"internal consistency failure: {check}:" in err


def test_decide_answers_with_the_topological_verdict(capsys, monkeypatch):
    # A wrong route YES gets the certificate of its case, which fails: the
    # Nil piece has e != 0, so no product covers it.
    monkeypatch.setattr(engine, "_topological",
                        lambda m, k: (True, "Thm1.1(1)", "patched"))
    code, _, err = invoke(capsys, "decide", "product", "SFS(g=1; b=-1)")
    assert code == 2
    assert "internal consistency failure: kind_matches_euler:" in err
    # A route NO is the answer, with the route's clause and explanation.
    monkeypatch.setattr(engine, "_topological",
                        lambda m, k: (False, "Patched", "patched no"))
    assert invoke(capsys, "decide", "product", "SFS(g=1; b=0)") == (
        0, "NO (Patched: patched no)\n", "")


def test_faulty_rank_oracle_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(
        groups, "reidemeister_schreier_rank_oracle",
        lambda d, max_order: free_cover_rank(d).rank + 1)
    text = "Spherical(2) # Spherical(3)"
    code, _, err = invoke(capsys, "decide", "product", text)
    assert code == 2
    assert "internal consistency failure: rank_oracle:" in err
    code, out, _ = invoke(capsys, "witness", "product", text)
    assert code == 2
    assert "check rank_oracle: FAIL" in out


def handler_output(capsys, argv):
    # A handler prints nothing; `run` prints its Output and nothing else.
    args = cli.build_parser().parse_args(argv)
    out = args.handler(args)
    assert capsys.readouterr() == ("", "")
    stdout = (json.dumps({"schema_version": 1, **out.payload()}, indent=2,
                         sort_keys=True) if args.json else "\n".join(out.human))
    assert invoke(capsys, *argv) == (
        out.status, stdout + "\n", "".join(f"{line}\n" for line in out.stderr))
    return out


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
@pytest.mark.parametrize("argv", [
    ["classify", "SFS(g=1; b=-1)"],
    ["decide", "product", "Spherical(2) # Spherical(3)"],
    ["witness", "ntbundle", "SFS(g=2; b=1)"],
    ["crosscheck", "Sol"],
    ["corpus"],
], ids=lambda argv: argv[0])
def test_a_handler_returns_what_run_writes(capsys, argv, flags):
    assert handler_output(capsys, flags + argv).status == 0


def test_a_handler_returns_its_consistency_failures(capsys, monkeypatch):
    monkeypatch.setattr(
        groups, "reidemeister_schreier_rank_oracle",
        lambda d, max_order: free_cover_rank(d).rank + 1)
    out = handler_output(capsys, ["decide", "product",
                                  "Spherical(2) # Spherical(3)"])
    assert out.status == 2
    assert [line.split(":")[1] for line in out.stderr] == [" rank_oracle"]


def test_witness_json_ends_with_the_rank_oracle(capsys):
    text = "Spherical(2) # Spherical(3)"
    code, out, _ = invoke(capsys, "--json", "witness", "product", text)
    assert code == 0
    assert json.loads(out)["checks"][-1] == {
        "name": "rank_oracle", "passed": True,
        "detail": "closed formula matches coset enumeration"}


def test_witness_reports_a_skipped_rank_oracle(capsys):
    # The cover has degree 6, above the bound of 5 cosets.
    text = "Spherical(2) # Spherical(3)"
    code, out, _ = invoke(capsys, "--max-order", "5", "witness", "product", text)
    assert code == 0
    assert out.splitlines()[-1] == \
        "  check rank_oracle: skipped (degree above --max-order)"
    code, out, _ = invoke(capsys, "--json", "--max-order", "5",
                          "witness", "product", text)
    assert code == 0
    assert json.loads(out)["checks"][-1] == {
        "name": "rank_oracle", "passed": None,
        "detail": "degree above --max-order"}


def test_max_order_zero_always_skips_the_oracle(capsys):
    # A bound of 0 is allowed: the oracle is skipped, not the input refused.
    text = "Spherical(2) # Spherical(3)"
    code, out, err = invoke(capsys, "--max-order", "0", "decide", "product",
                            text)
    assert (code, err) == (0, "")
    assert out.startswith("YES ")
    code, out, _ = invoke(capsys, "--json", "--max-order", "0",
                          "witness", "product", text)
    assert code == 0
    assert json.loads(out)["checks"][-1] == {
        "name": "rank_oracle", "passed": None,
        "detail": "degree above --max-order"}


@pytest.mark.parametrize("command", ["decide", "witness"])
def test_huge_free_rank_human_output_is_small(capsys, command):
    # 65 characters of text, a free rank of about 3.6e8: the human answer
    # must not spell out the #_n(S2xS1) target.
    text = "Spherical(101) # Spherical(103) # Spherical(107) # Spherical(109)"
    start = time.perf_counter()
    code, out, _ = invoke(capsys, command, "product", text)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert len(out.encode()) < 10_000


def test_a_million_summands_cost_about_the_parse(capsys):
    # The queries and `classify` walk the distinct pieces with their
    # multiplicities, so past the parse they cost the same for #_n(S2xS1)
    # whatever n is.
    text = " # ".join(["S2xS1"] * 10**6)

    def first_run_within_twice_the_parse(argv, text):
        # Each round times the parse and then the command back to back, so
        # that load from other processes hits both sides of one ratio.  The
        # rounds stop at the first ratio of at most 2, after 3 at most, and
        # the first round's exit code and output are returned.
        first, best = None, float("inf")
        for _ in range(3):
            start = time.perf_counter()
            parse_manifold(text)
            parse = time.perf_counter() - start
            start = time.perf_counter()
            code = run([*argv, text])
            best = min(best, (time.perf_counter() - start) / parse)
            out = capsys.readouterr().out
            first = first or (code, out)
            if best <= 2:
                break
        assert best <= 2, argv
        return first

    for argv in (["decide", "product"], ["decide", "ntbundle"],
                 ["decide", "anybundle"], ["decide", "presentable"],
                 ["crosscheck"], ["classify"]):
        code, out = first_run_within_twice_the_parse(argv, text)
        assert code == 0
    # `classify`, run last, prints one line per distinct piece.
    assert len(out.splitlines()) <= 3
    # A geometric NO names each distinct piece once, with its multiplicity,
    # so crosscheck prints little more than the input.
    text = "Hyperbolic # " + text
    for argv in (["crosscheck"], ["--json", "crosscheck"]):
        code, out = first_run_within_twice_the_parse(argv, text)
        assert code == 0
        assert "['S2xR x 1000000', 'H3']" in out
        assert 2 * len(out.encode()) < 3 * len(text.encode()), argv


@pytest.mark.parametrize("argv", [("--json", "decide", "product"),
                                  ("decide", "ntbundle"),
                                  ("decide", "anybundle")])
def test_unbuildable_free_rank_is_rejected(capsys, argv):
    # A free rank of about 1e34 is no sequence length: the #_n target
    # cannot be spelled, nor a fiber sum of n parts built.
    text = "Spherical(10007) # Spherical(999999999999999999999999999999)"
    assert invoke(capsys, *argv, text) == (
        1, "", "error: the input implies an object too large to build\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the product and crosscheck rejections are the "
                           "integer string conversion limit")
@pytest.mark.parametrize("argv", [("decide", "product"), ("decide", "ntbundle"),
                                  ("decide", "anybundle"),
                                  ("--json", "decide", "anybundle"),
                                  ("crosscheck",), ("decide", "presentable")])
def test_many_spherical_summands_are_rejected_quickly(capsys, argv):
    # 10**5 x Spherical(2): the free rank has about 30 000 digits, and the
    # rank arithmetic takes one step per distinct order, not per summand.
    # pi_1 is an infinite free product all the same, so presentable answers.
    text = " # ".join(["Spherical(2)"] * 10**5)
    start = time.perf_counter()
    code, _, err = invoke(capsys, *argv, text)
    assert time.perf_counter() - start < 0.5
    if argv == ("decide", "presentable"):
        assert (code, err) == (0, "")
    else:
        assert code == 1
        assert err.startswith("error: ")


# 50 distinct orders of 1000 digits: a cover degree of about 50 000 digits.
FIFTY_HUGE_ORDERS = " # ".join(f"Spherical({10**999 + k})" for k in range(50))
# A degree of 4299 digits; the free rank, about 20 times the degree, has 4301.
LONG_FREE_RANK = " # ".join(["Spherical(" + "9" * 4299 + ")"] + ["S2xS1"] * 20)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer string conversion limit")
@pytest.mark.parametrize("text", [FIFTY_HUGE_ORDERS, LONG_FREE_RANK])
@pytest.mark.parametrize("argv", [("decide", "product"), ("decide", "ntbundle"),
                                  ("decide", "anybundle"),
                                  ("--json", "decide", "product"),
                                  ("witness", "product"),
                                  ("witness", "ntbundle"), ("crosscheck",),
                                  ("decide", "presentable"), ("classify",)])
def test_a_free_cover_over_the_digit_limit_is_rejected(capsys, argv, text):
    # Every query that builds the free cover names it and the limit; the
    # two that do not build it answer.
    code, out, err = invoke(capsys, *argv, text)
    if argv in (("decide", "presentable"), ("classify",)):
        assert (code, err) == (0, "")
    else:
        limit = sys.get_int_max_str_digits()
        assert (code, out, err) == (
            1, "", f"error: the free cover's degree or rank has more than "
            f"{limit} digits, the limit on integers written as text\n")


def _sfs(genus, obstruction, fibers):
    pairs = ", ".join(f"({a},{b})" for a, b in fibers)
    return f"SFS(g={genus}; b={obstruction}" + (f"; {pairs}" if pairs else "") + ")"


# Seifert data (g, b, fibers) over the digit limit: e' = -(3b + 1) is
# exactly -10**limit; a lcm of about 9000 digits, refused before e or
# chi_orb is formed; L of 3001 digits, but b * L + 1 of 6001.  Under the
# limit, e' is 3 - 10**limit.
DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
OVER_THE_LIMIT = {
    "one-third-over": (1, int("3" * DIGITS or "0"), ((3, 1),)),
    "three-huge-fibers": (1, 0, tuple((10**3000 + k, 1) for k in (1, 3, 7))),
    "long-obstruction": (1, 10**3000, ((10**3000 + 1, 1),)),
}
ONE_THIRD_UNDER = (1, int("3" * DIGITS or "0") - 1, ((3, 1),))
SEIFERT_COMMANDS = [("decide", "product"), ("decide", "ntbundle"),
                    ("decide", "anybundle"), ("decide", "presentable"),
                    ("witness", "product"), ("--json", "witness", "ntbundle"),
                    ("crosscheck",), ("classify",), ("--json", "classify")]


@pytest.mark.skipif(not DIGITS, reason="no integer string conversion limit")
@pytest.mark.parametrize("data", OVER_THE_LIMIT.values(), ids=OVER_THE_LIMIT)
@pytest.mark.parametrize("argv", SEIFERT_COMMANDS)
def test_a_seifert_invariant_over_the_digit_limit_is_rejected(capsys, argv,
                                                              data):
    # Every command refuses the piece at its summand, as its constructor
    # does.
    message = (f"the Seifert piece or its finite cover has an invariant of "
               f"more than {DIGITS} digits, the limit on integers written "
               "as text")
    assert invoke(capsys, *argv, "S2xS1 # " + _sfs(*data)) == (
        1, "", f"error: {message} (line 1, column 9)\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        SeifertData(*data)


@pytest.mark.skipif(not DIGITS, reason="no integer string conversion limit")
@pytest.mark.parametrize("argv", SEIFERT_COMMANDS)
def test_a_seifert_piece_at_the_digit_limit_is_answered(capsys, argv):
    code, out, err = invoke(capsys, *argv, _sfs(*ONE_THIRD_UNDER))
    assert (code, err) == (0, "")
    if argv == ("--json", "witness", "ntbundle"):
        assert json.loads(out)["witness"]["euler"] == 3 - 10**DIGITS


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer string conversion limit")
def test_integer_over_the_conversion_limit_is_rejected_unpositioned(capsys):
    # An integer longer than the limit on int() is refused by the parser at
    # the integer, with its digit count; one of exactly the limit is read.
    limit = sys.get_int_max_str_digits()
    text = "Spherical(" + "9" * 5000 + ")"
    with pytest.raises(ParseError) as exc:
        parse_manifold(text)
    assert str(exc.value) == (f"integer of 5000 digits exceeds the limit of "
                              f"{limit} digits (line 1, column 11)")
    assert invoke(capsys, "decide", "product", text) == (
        1, "", f"error: {exc.value}\n")
    assert parse_manifold("Spherical(" + "9" * limit + ")")
    with pytest.raises(ParseError, match=re.escape(
            f"integer of {limit + 1} digits exceeds the limit of {limit} "
            f"digits (line 1, column 12)")):
        parse_manifold("SFS(g=0; b=-" + "1" * (limit + 1) + ")")


# Integers as the grammar spells them: small ones, and ones of as many
# digits as the conversion limit allows and of one more.
_LIMIT = DIGITS or 4300
_INT = st.builds(
    lambda pick, number, huge: huge if pick == 0 else str(number),
    st.integers(0, 9), st.one_of(st.integers(-3, 12), st.integers(-10**6, 10**6)),
    st.sampled_from(["9" * _LIMIT, "-" + "9" * _LIMIT, "1" * (_LIMIT + 1)]))
_MARKER = st.sampled_from(["S2xS1", "Hyperbolic", "Sol", "OtherAspherical",
                           "S2xS1", "Hyperbolic", "S3"])
_SFS = st.builds(
    _sfs, st.one_of(st.integers(0, 3).map(str), _INT), _INT,
    st.lists(st.tuples(st.one_of(st.integers(2, 7).map(str), _INT), _INT),
             max_size=4))
_JUNK = st.lists(st.sampled_from(
    ["#", "(", ")", ",", ";", "=", "g", "b", "x", "-", "--", "S3", "SFS",
     "Spherical", "\u0663", " ", "\n"]), max_size=6).map("".join)
CLI_COMMANDS = [("classify",), *(("decide", q) for q in sorted(cli.QUERIES)),
                ("witness", "product"), ("witness", "ntbundle"), ("crosscheck",)]


@st.composite
def _descriptions(draw):
    """Grammar-shaped text: up to 6 summands, a few spelled wrong, then one
    summand that is not spherical, repeated up to 2000 times.  Small
    spherical orders multiply to at most 10**4 // (1 + repeats), which
    bounds the free cover's rank; an order of a limit's length makes it too
    large to build at once."""
    repeats = draw(st.one_of(st.integers(0, 2), st.integers(0, 2000)))
    budget, summands = 10**4 // (1 + repeats), []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["marker", "sfs", "spherical"] * 3
                                    + ["junk"]))
        if kind == "spherical":
            order = draw(st.one_of(st.integers(-1, 12).map(str), _INT))
            if len(order) < _LIMIT:
                if int(order) > budget:
                    continue
                budget //= max(int(order), 1)
            summand = f"Spherical({order})"
        else:
            summand = draw({"marker": _MARKER, "sfs": _SFS, "junk": _JUNK}[kind])
        if draw(st.integers(0, 9)) == 0:
            summand += draw(_JUNK)
        summands.append(summand)
    tail = draw(st.sampled_from([_MARKER] * 3 + [_SFS, _JUNK]))
    separator = draw(st.sampled_from(["#", " # ", "\n#\t"]))
    return separator.join(summands + [draw(tail)] * repeats)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_descriptions())
@example(FIFTY_HUGE_ORDERS)
@example(LONG_FREE_RANK)
@example(_sfs(*ONE_THIRD_UNDER))
@example("Spherical(" + "9" * 5000 + ")")
@example("SFS(g=0; b=-" + "1" * (_LIMIT + 1) + ")")
@example("S2xS1 # " + _sfs(*OVER_THE_LIMIT["one-third-over"]))
@example("S2xS1 # " + _sfs(*OVER_THE_LIMIT["three-huge-fibers"]))
@example("S2xS1 # " + _sfs(*OVER_THE_LIMIT["long-obstruction"]))
def test_every_command_answers_or_rejects(text):
    # In-process, every command, plain and --json, exits 0 with nothing on
    # stderr or 1 with one error line; it never raises and never reports
    # an internal consistency failure.  The text follows "--", since
    # argparse would read a leading "-" as an option.
    for form in ((), ("--json",)):
        for command in CLI_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([*form, *command, "--", text])
            err = err.getvalue()
            assert code in (0, 1), (command, text[:200], err)
            if code == 0:
                assert err == "", (command, text[:200])
            else:
                assert err.startswith("error: ") and err.count("\n") == 1, (
                    command, text[:200], err)


def test_witness_no_case(capsys):
    code, out, _ = invoke(capsys, "witness", "ntbundle", "SFS(g=2;b=0)")
    assert code == 0
    assert "no witness" in out


def test_verify_command(tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema_to_dict(product_branched_cover_schema(2))))
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 0
    assert "VERIFIED" in out
    # A target of 10**6 summands verifies.
    path.write_text(json.dumps(
        schema_to_dict(product_branched_cover_schema(10**6))))
    assert invoke(capsys, "verify", str(path))[0] == 0
    # Words of 20 000 letters verify, and the report does not repeat them.
    blob = schema_to_dict(product_branched_cover_schema(2))
    blob["pi1_data"] = ["a" * 20_000, "a" * 20_001, "b" + "a" * 20_000]
    path.write_text(json.dumps(blob))
    code, out, _ = invoke(capsys, "--json", "verify", str(path))
    assert code == 0
    assert len(out.encode()) < 4096


@pytest.mark.parametrize("target", [
    "SFS(g=0; b=1)", "Sol(", "Spherical(1)",
    pytest.param("Spherical(" + "9" * 5000 + ")", id="Spherical(9...9)",
                 marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"),
                     reason="no integer string conversion limit")),
])
def test_verify_names_an_unparsable_target(tmp_path, capsys, target):
    blob = schema_to_dict(product_branched_cover_schema(2))
    blob["target"] = target
    with pytest.raises(ValueError, match="^schema field 'target': "):
        schema_from_dict(blob)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "verify", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: schema field 'target': ")


def test_verify_rejects_a_boolean_schema_version(tmp_path, capsys):
    blob = schema_to_dict(product_branched_cover_schema(2))
    blob["schema_version"] = True
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(blob))
    assert invoke(capsys, "verify", str(path)) == (
        1, "", f"error: {path}: unsupported schema_version True\n")


def test_verify_command_detects_fault(tmp_path, capsys):
    blob = schema_to_dict(product_branched_cover_schema(2))
    blob["branch_components"] = 5
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(blob))
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 2
    assert "VERIFICATION FAILED" in out


@pytest.mark.parametrize("build", [product_branched_cover_schema,
                                   bundle_branched_cover_schema])
@pytest.mark.parametrize("forgery, check", [
    (lambda d: {"target": "Hyperbolic"}, "target_is_sum_of_s2xs1"),
    (lambda d: {"source_kind": "bogus", "degree": 7, "target": "Sol"},
     "source_kind"),
    (lambda d: {"degree": 4}, "degree_two"),
    (lambda d: {"source_euler": int(d["source_euler"] == 0)},
     "euler_matches_kind"),
    (lambda d: dict.fromkeys(CONSTRUCTIONS), "construction_present"),
    (lambda d: {"source_genus": d["source_genus"] + 3}, "slice_genus"),
])
def test_verify_command_rejects_forged_schema(tmp_path, capsys, build,
                                              forgery, check):
    blob = schema_to_dict(build(1))
    blob.update(forgery(blob))
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(blob))
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 2
    assert f"check {check}: FAIL" in out
    assert "VERIFICATION FAILED" in out


@pytest.mark.parametrize("stage, top", [
    ({"degree": 0}, {}), ({"degree": -5}, {}),
    # 1 + degree = source_genus and chi_cover = degree * chi_base both hold.
    ({"degree": 0, "chi_cover": 0}, {"source_genus": 1}),
])
def test_verify_fails_unramified_stage_below_degree_one(tmp_path, capsys,
                                                        stage, top):
    blob = schema_to_dict(product_branched_cover_schema(3))
    blob["unramified_stage"].update(stage)
    blob.update(top)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "verify", str(path))
    assert (code, err) == (2, "")
    assert (f"check nielsen_schreier_rank: FAIL (unramified degree "
            f"{stage['degree']} is not a covering degree (>= 1))") in out
    assert "VERIFICATION FAILED" in out


def test_verify_rejects_letters_outside_the_target_group(tmp_path, capsys):
    blob = schema_to_dict(product_branched_cover_schema(2))
    blob["pi1_data"] = ["a", "b", "z"]
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 1
    assert err.startswith(f"error: {path}: ") and "'z'" in err


def test_verify_rejects_non_ascii_letters(tmp_path, capsys):
    # U+212A KELVIN SIGN lower-cases to 'k', the eleventh generator.
    blob = schema_to_dict(product_branched_cover_schema(11))
    blob["pi1_data"] = [*"abcdefghij", "\u212a"]
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert err == (f"error: {path}: invalid letter '\\u212a' in word "
                   "'\u212a'\n")


@pytest.mark.parametrize("rank", [27, 10**7])
def test_verify_rejects_pi1_rank_beyond_the_alphabet(tmp_path, capsys, rank):
    blob = schema_to_dict(product_branched_cover_schema(2))
    blob["pi1_rank"] = rank
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert err == (f"error: {path}: pi1_rank {rank} is not in 0..26: "
                   "pi1_data words spell generators a-z, inverses A-Z\n")


@pytest.mark.parametrize("data, reason", [
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply",
                 id="nested"),
    pytest.param(b'{"degree": ' + b"9" * (DIGITS + 1) + b"}",
                 f"an integer has more than {DIGITS} digits, the limit on "
                 "integers written as text",
                 marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"),
                     reason="the integer string conversion limit"),
                 id="long-integer"),
    pytest.param(b"{not json", "Expecting property name enclosed in double "
                 "quotes: line 1 column 2 (char 1)", id="not-json"),
    pytest.param(b"\xff", "'utf-8' codec can't decode byte 0xff in position "
                 "0: invalid start byte", id="not-utf-8"),
])
def test_verify_names_the_file_on_a_read_error(tmp_path, capsys, data, reason):
    path = tmp_path / "schema.json"
    path.write_bytes(data)
    assert invoke(capsys, "verify", str(path)) == (
        1, "", f"error: {path}: {reason}\n")


@pytest.mark.parametrize("text", ["[1,2]", '{"schema_version": 1}'])
def test_verify_rejects_malformed_file(tmp_path, capsys, text):
    path = tmp_path / "schema.json"
    path.write_text(text)
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: ")


def test_crosscheck_single(capsys):
    code, out, _ = invoke(capsys, "crosscheck", "Sol")
    assert code == 0
    assert "CONSISTENT" in out
    report = engine.cross_check(parse_manifold("Sol"))
    code, out, _ = invoke(capsys, "--json", "crosscheck", "Sol")
    assert code == 0
    assert json.loads(out) == {
        "schema_version": 1, "query": "crosscheck", "input": "Sol",
        "consistent": True, "product": dataclasses.asdict(report.product),
        "bundle": dataclasses.asdict(report.bundle),
        "traces": list(report.traces)}


def test_crosscheck_reports_a_faulted_route(capsys, monkeypatch):
    # The algebraic route, told that the torus bundle's cover has e' != 0,
    # disagrees with the other two.
    monkeypatch.setattr(engine, "seifert_cover_parameters",
                        lambda s: (1, 1, 1, "explicit"))
    code, out, _ = invoke(capsys, "crosscheck", "SFS(g=1; b=0)")
    assert code == 2
    assert out.splitlines()[-1] == "DISCREPANCY"
    code, out, _ = invoke(capsys, "--json", "crosscheck", "SFS(g=1; b=0)")
    assert code == 2
    assert json.loads(out)["product"] == {
        "topological": True, "geometric": True, "algebraic": False}


def test_crosscheck_needs_input_or_sweep(capsys):
    usage = "usage: threedom crosscheck [-h] (--sweep | manifold)\n"
    code, _, err = invoke(capsys, "crosscheck")
    assert code == 1
    assert err.startswith(usage)
    assert "one of the arguments manifold --sweep is required" in err
    # Not both: the description would be ignored by the sweep.
    code, out, err = invoke(capsys, "crosscheck", "--sweep", "Sol")
    assert code == 1
    assert out == ""
    assert err.startswith(usage)
    assert "not allowed with" in err


def test_crosscheck_sweep_reports(capsys, monkeypatch):
    # The sweep itself is slow; its report is checked on stand-in results.
    monkeypatch.setattr(cli, "cross_check_sweep", lambda: (3, []))
    code, out, _ = invoke(capsys, "crosscheck", "--sweep")
    assert (code, out) == (0, "swept 3 inputs: 0 discrepancies\n")
    code, out, _ = invoke(capsys, "--json", "crosscheck", "--sweep")
    assert code == 0
    assert json.loads(out) == {"schema_version": 1, "inputs": 3,
                               "query": "crosscheck-sweep", "discrepancies": []}
    report = engine.cross_check(parse_manifold("Sol"))
    monkeypatch.setattr(cli, "cross_check_sweep", lambda: (3, [report]))
    code, out, _ = invoke(capsys, "crosscheck", "--sweep")
    assert code == 2
    assert out.splitlines() == [
        "swept 3 inputs: 1 discrepancies", "  DISCREPANCY on Sol:",
        *(f"    {t}" for t in report.traces)]
    code, out, _ = invoke(capsys, "--json", "crosscheck", "--sweep")
    assert code == 2
    assert json.loads(out)["discrepancies"] == [
        {"input": "Sol", "traces": list(report.traces)}]


def test_corpus_command(capsys):
    code, out, _ = invoke(capsys, "corpus")
    assert code == 0
    assert "0 mismatches" in out


def _python(*argv):
    """Run `python -X dev -W error *argv` with the package importable."""
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})


def test_the_program_rejects_without_a_traceback():
    # The other tests call `run` in-process; this one runs the program as
    # a user does, so the exit status and the streams are the process's own.
    rejected = _python("-m", "threedom.cli", "decide", "product",
                       "S2xS1 # SFS(g=0; b=0; (2,3))")
    assert (rejected.returncode, rejected.stdout) == (1, "")
    assert rejected.stderr.count("\n") == 1
    assert rejected.stderr.endswith("(line 1, column 9)\n")
    assert "Traceback" not in rejected.stderr
    assert _python("-m", "threedom.cli", "corpus").returncode == 0


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_a_closed_stdout_is_not_a_rejection():
    # The report is megabytes long, so the program is still writing when
    # the reader stops; it ends by SIGPIPE, as `head` expects, silently.
    with subprocess.Popen(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "threedom.cli",
             "--json", "witness", "product",
             "Spherical(101) # Spherical(103) # Spherical(107)"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ,
                 "PYTHONPATH": str(Path(cli.__file__).parents[1])}) as child:
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        assert child.stderr.read() == b""
        assert child.wait(timeout=60) == -signal.SIGPIPE


@pytest.mark.parametrize("module, loaded", [
    ("manifold", {"manifold"}),
    ("groups", {"manifold", "groups"}),
    ("witness", {"manifold", "groups", "witness"}),
])
def test_a_module_loads_only_the_layers_below_it(module, loaded):
    # The package root imports nothing, so the verifier module loads no
    # producer: neither the engine nor the CLI.  Each import runs in a
    # fresh interpreter, since this one has loaded every module.
    listed = _python("-c", f"import sys, threedom.{module}; print(*sorted("
                     "k for k in sys.modules if k.startswith('threedom')))")
    assert (listed.returncode, listed.stderr) == (0, "")
    assert set(listed.stdout.split()) == {
        "threedom", *(f"threedom.{name}" for name in loaded)}


@pytest.mark.skipif(sys.platform != "linux",
                    reason="RLIMIT_AS caps the address space on Linux only")
@pytest.mark.parametrize("argv", [("decide", "ntbundle"),
                                  ("--json", "decide", "product")])
def test_a_free_rank_over_the_memory_cap_is_rejected(argv):
    # The free rank is 359 364 268: the fiber sum of n parts and the --json
    # #_n target each take about 2.9 GB of pointers.  Under a 2 GB address
    # space cap they cannot be built; without one, the outcome would depend
    # on the machine's memory, so the program runs in a capped child.
    text = "Spherical(101) # Spherical(103) # Spherical(107) # Spherical(109)"
    capped = ("import resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9,) * 2); "
              "from threedom.cli import run; sys.exit(run(sys.argv[1:]))")
    rejected = _python("-c", capped, *argv, text)
    assert (rejected.returncode, rejected.stdout, rejected.stderr) == (
        1, "", "error: the input implies an object too large to build\n")


HEADER = "description\tproduct\tntbundle\tanybundle\tpresentable\n"


def write_corpus(tmp_path, table):
    path = tmp_path / "corpus.tsv"
    path.write_text(table)
    return str(path)


def test_corpus_file_round_trip(tmp_path, capsys):
    path = write_corpus(tmp_path, "# two entries\n" + HEADER
                        + "S2xS1\tYES\tYES\tYES\tYES\n\n"
                        "Hyperbolic\tNO\tNO\tNO\tNO\n")
    assert load_corpus(path) == [
        ("S2xS1", dict.fromkeys(["product", "ntbundle", "anybundle",
                                 "presentable"], "YES")),
        ("Hyperbolic", dict.fromkeys(["product", "ntbundle", "anybundle",
                                      "presentable"], "NO"))]
    code, out, _ = invoke(capsys, "corpus", "--corpus", path)
    assert code == 0
    assert out.endswith("2 entries, 0 mismatches\n")


@pytest.mark.parametrize("table, message", [
    ("", "corpus.tsv: no header line"),
    ("# only a comment\n\n", "corpus.tsv: no header line"),
    ("description\tprodct\nS2xS1\tYES\n",
     "corpus.tsv:1: unknown column 'prodct'"),
    ("description\tproduct\tproduct\nS2xS1\tNO\tYES\n",
     "corpus.tsv:1: repeated column 'product'"),
    (HEADER + "S2xS1\tYES\tYES\tMAYBE\tYES\n",
     "corpus.tsv:2: want 4 verdicts of YES, NO or ERR, not "
     "['YES', 'YES', 'MAYBE', 'YES']"),
    (HEADER + "S2xS1\tMAYBE\tYES\tYES\tYES\n",
     "corpus.tsv:2: want 4 verdicts of YES, NO or ERR, not "
     "['MAYBE', 'YES', 'YES', 'YES']"),
    (HEADER + "S2xS1\tYES\tYES\n",
     "corpus.tsv:2: want 4 verdicts of YES, NO or ERR, not "
     "['YES', 'YES']"),
    (HEADER + "S2xS1\tYES\tYES\tYES\tYES\nSol\tNO\tNO\tNO\tNO\n"
     "Spherical(1)\tYES\tNO\tYES\tERR\n",
     "corpus.tsv:4: Spherical order must be >= 2, got 1"),
    (HEADER + "SFS(g=0; b=1)\tYES\tYES\tYES\tERR\n",
     "corpus.tsv:2: SFS(g=0; b=1) is a spherical space form: specify as "
     "Spherical(order) (line 1, column 1)"),
    (HEADER + "S2xS1\tYES\tYES\tYES\tYES\nS2xS1\tNO\tNO\tNO\tNO\n",
     "corpus.tsv:3: a second row for 'S2xS1' (the first is line 2)"),
], ids=["empty-table", "no-header", "unknown-column", "repeated-column",
        "bad-verdict", "bad-first-verdict", "short-row",
        "unparsable-description", "spherical-description", "second-row"])
def test_malformed_corpus_is_rejected(tmp_path, capsys, table, message):
    path = write_corpus(tmp_path, table)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_corpus(path)
    code, out, err = invoke(capsys, "corpus", "--corpus", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
