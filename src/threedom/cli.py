"""Command-line front end.

Subcommands::

    classify <desc>                      normalized form, geometries, invariants
    decide product|ntbundle|anybundle|presentable <desc>
    witness product|ntbundle <desc>      print and verify the certificate
    verify <schema-file>                 verify a serialized schema
    crosscheck [--sweep] [<desc>]        three-route agreement check
    corpus [--corpus <path>]             run the bundled truth table

Exit codes: 0 = query answered (the verdict may be NO); 1 = input rejected;
2 = internal consistency failure (route disagreement or a witness that fails
verification).  `--json` switches every command to a structured report with a
top-level "schema_version".
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import Optional

from . import engine
from .engine import (
    Decision,
    FinitePi1Error,
    InessentialWitness,
    cross_check,
    cross_check_sweep,
    dominated_by_any_circle_bundle,
    dominated_by_nontrivial_circle_bundle,
    dominated_by_product,
    presentable_by_products,
)
from .groups import OrderBoundExceeded, reidemeister_schreier_rank_oracle
from .manifold import (
    Manifold,
    classify_geometry,
    describe,
    euler_number,
    format_rational,
    normalize_manifold,
    orbifold_euler_characteristic,
    parse_manifold,
    SeifertFibered,
)
from .witness import (
    FiniteCoverWitness,
    SCHEMA_VERSION,
    VerificationReport,
    schema_from_dict,
    schema_to_dict,
    verify_finite_cover,
    verify_schema,
)

QUERIES = {
    "product": dominated_by_product,
    "ntbundle": dominated_by_nontrivial_circle_bundle,
    "anybundle": dominated_by_any_circle_bundle,
    "presentable": presentable_by_products,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="threedom",
                     description="Decide domination of 3-manifolds by products "
                                 "and circle bundles, with verifiable witnesses.")
    parser.add_argument("--json", action="store_true",
                        help="emit a structured JSON report")
    parser.add_argument("--max-order", type=int, default=10_000,
                        help="bound for the brute-force coset-enumeration oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="geometry and invariants of the pieces")
    p.add_argument("manifold")

    p = sub.add_parser("decide", help="answer one classification query")
    p.add_argument("query", choices=sorted(QUERIES))
    p.add_argument("manifold")

    p = sub.add_parser("witness", help="print and verify the YES certificate")
    p.add_argument("query", choices=["product", "ntbundle"])
    p.add_argument("manifold")

    p = sub.add_parser("verify", help="verify a serialized branched-cover schema")
    p.add_argument("schema_file")

    p = sub.add_parser("crosscheck",
                       help="check that the three decision routes agree")
    p.add_argument("manifold", nargs="?")
    p.add_argument("--sweep", action="store_true",
                   help="run the exhaustive input family")

    p = sub.add_parser("corpus", help="run the bundled truth-table corpus")
    p.add_argument("--corpus", dest="corpus_path", default=None,
                   help="description file (expected verdicts in "
                        "<path>.expected alongside)")
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:   # --help
        return 0 if not exc.code else 1
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "classify":
        return _cmd_classify(args)
    if args.command == "decide":
        return _cmd_decide(args)
    if args.command == "witness":
        return _cmd_witness(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "crosscheck":
        return _cmd_crosscheck(args)
    if args.command == "corpus":
        return _cmd_corpus(args)
    raise AssertionError(f"unhandled command {args.command}")


def _load(text: str) -> Manifold:
    return normalize_manifold(parse_manifold(text))


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)


def _witness_payload(w) -> Optional[dict]:
    if w is None:
        return None
    if isinstance(w, FiniteCoverWitness):
        return {
            "type": "finite_cover",
            "cover": w.cover,
            "kind": w.kind,
            "base_genus": w.base_genus,
            "euler": w.euler,
            "degree": w.degree,
            "construction_status": w.construction_status,
        }
    assert isinstance(w, InessentialWitness)
    return {
        "type": "inessential",
        "free_rank": w.free_rank,
        "cover_degree": w.cover_degree,
        "schema": schema_to_dict(w.schema),
    }


def _witness_lines(w) -> list[str]:
    if w is None:
        return []
    if isinstance(w, FiniteCoverWitness):
        return [f"witness: {w.kind} cover {w.cover}, degree {w.degree} "
                f"({w.construction_status})"]
    lines = [f"witness: covered with degree {w.cover_degree} by "
             f"#_{w.free_rank}(S^2xS^1), dominated by {w.schema.source} "
             f"(branched double cover)"]
    if w.schema.branch_components is not None:
        lines.append(f"  branch circles: {w.schema.branch_components}")
    return lines


def _cmd_classify(args) -> int:
    m = _load(args.manifold)
    pieces = []
    human = [f"input (normalized): {describe(m)}"]
    for p in m.pieces:
        geom = classify_geometry(p)
        entry = {"piece": describe(Manifold((p,))), "geometry": geom.value}
        line = f"  {entry['piece']}: geometry {geom.value}"
        if isinstance(p, SeifertFibered):
            e = euler_number(p.data)
            chi = orbifold_euler_characteristic(p.data)
            entry["euler_number"] = format_rational(e)
            entry["orbifold_euler_characteristic"] = format_rational(chi)
            line += (f", e = {format_rational(e)}, "
                     f"chi_orb = {format_rational(chi)}")
        pieces.append(entry)
        human.append(line)
    if not m.pieces:
        human.append("  (empty connected sum: S^3)")
    _emit(args, {"query": "classify", "input": describe(m), "pieces": pieces},
          human)
    return 0


def _decision_payload(query: str, m: Manifold, d: Decision) -> dict:
    return {
        "query": query,
        "input": describe(m),
        "verdict": d.verdict,
        "clause": d.clause,
        "explanation": d.explanation,
        "witness": _witness_payload(d.witness),
    }


def _cmd_decide(args) -> int:
    m = _load(args.manifold)
    try:
        decision = QUERIES[args.query](m)
    except FinitePi1Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures: list[str] = []
    report = _verify_witness(m, decision.witness)
    if report is not None:
        failures.extend(f"{c.name}: {c.detail}" for c in report.failures())
    if isinstance(decision.witness, InessentialWitness):
        oracle_failure = _oracle_check(m, decision.witness, args.max_order)
        if oracle_failure:
            failures.append(oracle_failure)
    human = [f"{'YES' if decision.verdict else 'NO'} "
             f"({decision.clause}: {decision.explanation})"]
    human += _witness_lines(decision.witness)
    _emit(args, _decision_payload(args.query, m, decision), human)
    if failures:
        for f in failures:
            print(f"internal consistency failure: {f}", file=sys.stderr)
        return 2
    return 0


def _cmd_witness(args) -> int:
    m = _load(args.manifold)
    decision = QUERIES[args.query](m)
    if not decision.verdict:
        _emit(args, _decision_payload(args.query, m, decision),
              [f"NO ({decision.clause}: {decision.explanation}) - no witness"])
        return 0
    human = [f"YES ({decision.clause})"]
    human += _witness_lines(decision.witness)
    payload = _decision_payload(args.query, m, decision)
    report = _verify_witness(m, decision.witness)
    payload["checks"] = [
        {"name": c.name, "passed": c.passed, "detail": c.detail}
        for c in report.checks
    ]
    for c in report.checks:
        human.append(f"  check {c.name}: {'pass' if c.passed else 'FAIL'} "
                     f"({c.detail})")
    failures = [c.name for c in report.failures()]
    if isinstance(decision.witness, InessentialWitness):
        oracle_failure = _oracle_check(m, decision.witness, args.max_order)
        if oracle_failure:
            failures.append(oracle_failure)
            human.append(f"  check rank_oracle: FAIL ({oracle_failure})")
        elif _oracle_applicable(decision.witness, args.max_order):
            human.append("  check rank_oracle: pass (closed formula matches "
                         "coset enumeration)")
        else:
            human.append("  check rank_oracle: skipped (degree above "
                         "--max-order)")
    _emit(args, payload, human)
    if failures:
        for f in failures:
            print(f"internal consistency failure: {f}", file=sys.stderr)
        return 2
    return 0


def _verify_witness(m: Manifold, w) -> Optional[VerificationReport]:
    if isinstance(w, InessentialWitness):
        return verify_schema(w.schema)
    if isinstance(w, FiniteCoverWitness):
        return verify_finite_cover(m.pieces[0].data, w)
    return None


def _oracle_applicable(w: InessentialWitness, max_order: int) -> bool:
    return w.cover_degree <= max_order


def _oracle_check(m: Manifold, w: InessentialWitness,
                  max_order: int) -> Optional[str]:
    if not _oracle_applicable(w, max_order):
        return None
    fpd = engine.free_product_data(m)
    try:
        oracle_rank = reidemeister_schreier_rank_oracle(fpd, max_order=max_order)
    except OrderBoundExceeded:
        return None
    if oracle_rank != w.free_rank:
        return (f"free cover rank {w.free_rank} disagrees with the "
                f"coset-enumeration oracle ({oracle_rank})")
    return None


def _cmd_verify(args) -> int:
    with open(args.schema_file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    schema = schema_from_dict(data)
    report = verify_schema(schema)
    human = [f"schema: {schema.source} -> {describe(schema.target)}, "
             f"degree {schema.degree}"]
    for c in report.checks:
        human.append(f"  check {c.name}: {'pass' if c.passed else 'FAIL'} "
                     f"({c.detail})")
    human.append("VERIFIED" if report.passed else "VERIFICATION FAILED")
    payload = {
        "query": "verify",
        "input": args.schema_file,
        "passed": report.passed,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
    }
    _emit(args, payload, human)
    return 0 if report.passed else 2


def _cmd_crosscheck(args) -> int:
    if args.sweep:
        count, discrepancies = cross_check_sweep()
        human = [f"swept {count} inputs: "
                 f"{len(discrepancies)} discrepancies"]
        for rep in discrepancies:
            human.append(f"  DISCREPANCY on {describe(rep.manifold)}:")
            human.extend(f"    {t}" for t in rep.traces)
        payload = {
            "query": "crosscheck-sweep",
            "inputs": count,
            "discrepancies": [
                {"input": describe(r.manifold), "traces": list(r.traces)}
                for r in discrepancies
            ],
        }
        _emit(args, payload, human)
        return 2 if discrepancies else 0
    if args.manifold is None:
        print("error: crosscheck needs a manifold description or --sweep",
              file=sys.stderr)
        return 1
    m = _load(args.manifold)
    report = cross_check(m)
    human = [f"input (normalized): {describe(m)}"]
    human.extend(f"  {t}" for t in report.traces)
    human.append("CONSISTENT" if report.consistent else "DISCREPANCY")
    routes = ("topological", "geometric", "algebraic")
    payload = {
        "query": "crosscheck",
        "input": describe(m),
        "consistent": report.consistent,
        "product": {k: getattr(report.product, k) for k in routes},
        "bundle": {k: getattr(report.bundle, k) for k in routes},
        "traces": list(report.traces),
    }
    _emit(args, payload, human)
    return 0 if report.consistent else 2


def load_corpus(path: Optional[str] = None) -> list[tuple[str, dict[str, str]]]:
    """Read the corpus descriptions and their expected-verdict sidecar.

    The description file has one manifold per line, '#'-comments allowed.
    The sidecar `<path>.expected` is tab-separated with a header line:
    description, then YES/NO/ERR for product, ntbundle, anybundle,
    presentable.
    """
    if path is None:
        base = resources.files("threedom").joinpath("data/corpus.txt")
        desc_text = base.read_text(encoding="utf-8")
        exp_text = (resources.files("threedom")
                    .joinpath("data/corpus.txt.expected")
                    .read_text(encoding="utf-8"))
    else:
        with open(path, encoding="utf-8") as fh:
            desc_text = fh.read()
        with open(path + ".expected", encoding="utf-8") as fh:
            exp_text = fh.read()
    descriptions = [line.strip() for line in desc_text.splitlines()
                    if line.strip() and not line.lstrip().startswith("#")]
    expected: dict[str, dict[str, str]] = {}
    rows = [line for line in exp_text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    header = rows[0].split("\t")
    for line in rows[1:]:
        cells = line.split("\t")
        expected[cells[0].strip()] = {
            key.strip(): cell.strip()
            for key, cell in zip(header[1:], cells[1:])
        }
    return [(d, expected[d]) for d in descriptions]


def evaluate_corpus_entry(description: str) -> dict[str, str]:
    """YES/NO/ERR verdicts of the four queries on one description."""
    m = _load(description)
    out = {}
    for name in ("product", "ntbundle", "anybundle", "presentable"):
        try:
            out[name] = "YES" if QUERIES[name](m).verdict else "NO"
        except FinitePi1Error:
            out[name] = "ERR"
    return out


def _cmd_corpus(args) -> int:
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
    _emit(args, {"query": "corpus", "entries": results,
                 "mismatches": mismatches}, human)
    return 0 if mismatches == 0 else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
