"""Command-line front end.

Subcommands::

    classify <desc>                      normalized form, geometries, invariants
    decide product|ntbundle|anybundle|presentable <desc>
    witness product|ntbundle <desc>      print and verify the certificate
    verify <schema-file>                 verify a serialized schema
    crosscheck <desc> | --sweep          three-route agreement check
    corpus [--corpus <table>]            run the bundled truth table

A description has one reader, `parse_manifold`, which returns it
normalized or raises a positioned ParseError.  A corpus is one
tab-separated table of descriptions and their expected verdicts.

Exit codes: 0 = query answered (the verdict may be NO); 1 = input rejected;
2 = internal consistency failure (route disagreement, or a schema or finite
cover that fails its checks).  `--json`, given before the subcommand, switches
every command to a structured report with a top-level "schema_version".
Each handler returns an `Output` and prints nothing; `run` alone writes it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import asdict
from functools import cache
from typing import Callable, NamedTuple, Optional

from .engine import (
    FinitePi1Error,
    cross_check,
    cross_check_sweep,
    dominated_by_any_circle_bundle,
    dominated_by_nontrivial_circle_bundle,
    dominated_by_product,
    presentable_by_products,
)
from .manifold import (
    SeifertData,
    classify_geometry,
    describe,
    describe_piece,
    euler_number,
    int_digit_limit,
    orbifold_euler_characteristic,
    parse_manifold,
)
from .witness import (
    SCHEMA_VERSION,
    VerificationReport,
    schema_from_dict,
    verify_schema,
)

QUERIES = {
    "product": dominated_by_product,
    "ntbundle": dominated_by_nontrivial_circle_bundle,
    "anybundle": dominated_by_any_circle_bundle,
    "presentable": presentable_by_products,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once and reused: parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="threedom", description="Decide domination of 3-manifolds by "
        "products and circle bundles, with verifiable witnesses.")
    parser.add_argument("--json", action="store_true",
                        help="emit a structured JSON report")
    parser.add_argument("--max-order", type=_order_bound, default=10_000,
                        help="bound for the brute-force coset-enumeration oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="geometry and invariants of the pieces")
    p.add_argument("manifold")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("decide", help="answer one classification query")
    p.add_argument("query", choices=sorted(QUERIES))
    p.add_argument("manifold")
    p.set_defaults(handler=_cmd_query)

    p = sub.add_parser("witness", help="print and verify the YES certificate")
    p.add_argument("query", choices=["product", "ntbundle"])
    p.add_argument("manifold")
    p.set_defaults(handler=_cmd_query)

    p = sub.add_parser("verify", help="verify a serialized branched-cover schema")
    p.add_argument("schema_file")
    p.set_defaults(handler=_cmd_verify)

    # argparse does not draw a mutually exclusive group holding a positional.
    p = sub.add_parser("crosscheck",
                       help="check that the three decision routes agree",
                       usage="%(prog)s [-h] (--sweep | manifold)")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("manifold", nargs="?")
    target.add_argument("--sweep", action="store_true",
                        help="run the exhaustive input family")
    p.set_defaults(handler=_cmd_crosscheck)

    p = sub.add_parser("corpus", help="run the bundled truth-table corpus")
    p.add_argument("--corpus", dest="corpus_path", default=None,
                   help="corpus table: tab-separated descriptions and "
                        "expected verdicts")
    p.set_defaults(handler=_cmd_corpus)
    return parser


def _order_bound(text: str) -> int:
    """An int n >= 0; with 0 the oracle is always skipped."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {n}")
    return n


class Output(NamedTuple):
    """A command's exit status and what `run` writes for it: the --json
    report, built only when it is printed, or the human lines; then stderr."""
    status: int
    payload: Callable[[], dict]
    human: list[str]
    stderr: tuple[str, ...] = ()


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # --help exits 0, a usage error 2
        return 0 if not exc.code else 1
    try:
        out = args.handler(args)
        print(json.dumps({"schema_version": SCHEMA_VERSION, **out.payload()},
                         indent=2, sort_keys=True) if args.json
              else "\n".join(out.human))
        for line in out.stderr:
            print(line, file=sys.stderr)
        return out.status
    except (ValueError, OSError) as exc:
        message = str(exc)
    except (OverflowError, MemoryError):
        message = "the input implies an object too large to build"
    print(f"error: {message}", file=sys.stderr)
    return 1


def _cmd_classify(args) -> Output:
    """One line and one entry per distinct piece, with its multiplicity."""
    m = parse_manifold(args.manifold)
    pieces = []
    human = [f"input (normalized): {describe(m)}"]
    for p, count in m.counts:
        geom = classify_geometry(p)
        entry = {"piece": describe_piece(p), "multiplicity": count,
                 "geometry": geom.value}
        line = (f"  {entry['piece']} (multiplicity {count}): "
                f"geometry {geom.value}")
        if isinstance(p, SeifertData):
            e = euler_number(p)
            chi = orbifold_euler_characteristic(p)
            entry["euler_number"] = str(e)
            entry["orbifold_euler_characteristic"] = str(chi)
            line += f", e = {e}, chi_orb = {chi}"
        pieces.append(entry)
        human.append(line)
    if not m.counts:
        human.append("  (empty connected sum: S^3)")
    return Output(0, lambda: {"query": "classify", "input": describe(m),
                              "pieces": pieces}, human)


def _cmd_query(args) -> Output:
    """`decide` and `witness`: answer the query, then check its witness."""
    m = parse_manifold(args.manifold)
    d = QUERIES[args.query](m)
    w = d.witness
    report = VerificationReport(w.checks(m, args.max_order) if w else ())
    listed = {}
    if args.command == "decide":
        human = [f"{'YES' if d.verdict else 'NO'} ({d.clause}: "
                 f"{d.explanation})", *(w.lines() if w else ())]
    elif not d.verdict:
        human = [f"NO ({d.clause}: {d.explanation}) - no witness"]
    else:
        lines, listed["checks"] = _render_checks(report.checks)
        human = [f"YES ({d.clause})", *w.lines(), *lines]
    return Output(0 if report.passed else 2, lambda: {
        "query": args.query, "input": describe(m), "verdict": d.verdict,
        "clause": d.clause, "explanation": d.explanation,
        "witness": w.payload() if w else None, **listed}, human,
        tuple(f"internal consistency failure: {c.name}: {c.detail}"
              for c in report.failures()))


_STATUS = {True: "pass", False: "FAIL", None: "skipped"}


def _render_checks(checks) -> tuple[list[str], list[dict]]:
    """Human lines and `checks` payload entries of verifier results."""
    lines = [f"  check {c.name}: {_STATUS[c.passed]} ({c.detail})"
             for c in checks]
    return lines, [asdict(c) for c in checks]


def _cmd_verify(args) -> Output:
    with open(args.schema_file, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.schema_file}: JSON nested too deeply") from None
        except ValueError as exc:
            # A plain ValueError is the int conversion's digit limit; its
            # subclasses (JSONDecodeError, UnicodeDecodeError) say what is wrong.
            reason = (f"an integer has more than {int_digit_limit()} digits, "
                      "the limit on integers written as text"
                      if type(exc) is ValueError else exc)
            raise ValueError(f"{args.schema_file}: {reason}") from None
    try:
        schema = schema_from_dict(data)
        report = verify_schema(schema)
    except ValueError as exc:
        raise ValueError(f"{args.schema_file}: {exc}") from None
    lines, checks = _render_checks(report.checks)
    human = [f"schema: {schema.source} -> {describe(schema.target)}, "
             f"degree {schema.degree}", *lines,
             "VERIFIED" if report.passed else "VERIFICATION FAILED"]
    return Output(0 if report.passed else 2, lambda: {
        "query": "verify", "input": args.schema_file,
        "passed": report.passed, "checks": checks}, human)


def _cmd_crosscheck(args) -> Output:
    if args.sweep:
        count, discrepancies = cross_check_sweep()
        human = [f"swept {count} inputs: "
                 f"{len(discrepancies)} discrepancies"]
        for rep in discrepancies:
            human.append(f"  DISCREPANCY on {describe(rep.manifold)}:")
            human.extend(f"    {t}" for t in rep.traces)
        return Output(2 if discrepancies else 0, lambda: {
            "query": "crosscheck-sweep",
            "inputs": count,
            "discrepancies": [
                {"input": describe(r.manifold), "traces": list(r.traces)}
                for r in discrepancies
            ],
        }, human)
    m = parse_manifold(args.manifold)
    report = cross_check(m)
    human = [f"input (normalized): {describe(m)}"]
    human.extend(f"  {t}" for t in report.traces)
    human.append("CONSISTENT" if report.consistent else "DISCREPANCY")
    return Output(0 if report.consistent else 2, lambda: {
        "query": "crosscheck",
        "input": describe(m),
        "consistent": report.consistent,
        "product": asdict(report.product),
        "bundle": asdict(report.bundle),
        "traces": list(report.traces),
    }, human)


def load_corpus(path: Optional[str] = None) -> list[tuple[str, dict[str, str]]]:
    """Read a corpus table: its descriptions with their expected verdicts.

    The table is tab-separated, '#'-comments allowed.  A header line names
    the description column and then some of product, ntbundle, anybundle,
    presentable, each at most once; each row is a description and its
    YES/NO/ERR verdicts.  A table with no header, an unknown or repeated
    column, a row with the wrong number of cells or a verdict other than
    YES/NO/ERR, a second row for one description or a description that is
    rejected is a ValueError naming the file and line.
    """
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data",
                            "corpus.txt.expected")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [(i, line.strip()) for i, line in enumerate(lines, 1)
            if line.strip() and not line.lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no header line")
    lineno, header = rows[0]
    columns = [key.strip() for key in header.split("\t")[1:]]
    for i, key in enumerate(columns):
        if key not in QUERIES:
            raise ValueError(f"{path}:{lineno}: unknown column {key!r}")
        if key in columns[:i]:
            raise ValueError(f"{path}:{lineno}: repeated column {key!r}")
    expected: dict[str, dict[str, str]] = {}
    first: dict[str, int] = {}
    for lineno, line in rows[1:]:
        cells = [cell.strip() for cell in line.split("\t")]
        if (len(cells) != 1 + len(columns)
                or not set(cells[1:]) <= {"YES", "NO", "ERR"}):
            raise ValueError(f"{path}:{lineno}: want {len(columns)} verdicts "
                             f"of YES, NO or ERR, not {cells[1:]}")
        if first.setdefault(cells[0], lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: a second row for {cells[0]!r} "
                             f"(the first is line {first[cells[0]]})")
        try:
            parse_manifold(cells[0])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        expected[cells[0]] = dict(zip(columns, cells[1:]))
    return list(expected.items())


def evaluate_corpus_entry(description: str) -> dict[str, str]:
    """YES/NO/ERR verdicts of the four queries on one description."""
    m = parse_manifold(description)
    out = {}
    for name, query in QUERIES.items():
        try:
            out[name] = "YES" if query(m).verdict else "NO"
        except FinitePi1Error:
            out[name] = "ERR"
    return out


def _cmd_corpus(args) -> Output:
    entries = load_corpus(args.corpus_path)
    human = []
    results = []
    mismatches = 0
    for description, expected in entries:
        actual = evaluate_corpus_entry(description)
        ok = all(actual[k] == v for k, v in expected.items())
        mismatches += 0 if ok else 1
        cols = " ".join(f"{k}={actual[k]}" for k in sorted(actual))
        human.append(f"{'ok  ' if ok else 'FAIL'} {description}: {cols}")
        results.append({"input": description, "expected": expected,
                        "actual": actual, "ok": ok})
    human.append(f"{len(entries)} entries, {mismatches} mismatches")
    return Output(0 if mismatches == 0 else 2, lambda: {
        "query": "corpus", "entries": results, "mismatches": mismatches}, human)


def main() -> None:
    # A closed stdout (a reader such as `head` that stops early) ends the
    # program as it ends other Unix filters, not as a rejected input.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
