"""The benchmark: workloads, the closed loop, metrics and the result line.

One process, one thread, one caller in a closed loop: each operation starts
when the previous one has been answered and checked.  The loop runs a
fixed number of whole blocks of inputs (see `gen`), set by `--seconds` and a
rate per workload, so that a run of the seed code lasts about `--seconds` and
every run with a seed attempts the same operations.  Every operation has a
deadline, enforced by an interval timer on this process; a timed-out
operation counts as failed.  The deadline lies well above the slowest
operation that finishes, so the same operations time out on every run.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs a fixed number
of blocks twice, untraced and then with span recorders around the program's
public functions, and prints the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  `correct`
is false only when an output could not be checked; wrong outputs are counted
in `failed`, by failure class.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from math import exp, lgamma, log
from pathlib import Path
from time import perf_counter

from perfbench import gen, ops, reference, tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Per-operation deadline of each workload: about four times its slowest
# operation that finishes on the seed code (large-invariants: 2 s, sums of
# five Spherical(q) and six-fiber pieces with lcm near 1e5; schema-verify:
# 9 s, folding words of 1000 letters).  Only deadline-class inputs reach it.
DEADLINE_S = {"large-invariants": 8.0, "schema-verify": 40.0}
SETUP_REPEATS = 21
# Blocks per 10 s of --seconds.  On the seed code, on a shared 2-vCPU x86-64
# machine, an end-to-end run of that many blocks lasts about --seconds
# (40-55 s at 50 s), and a traced run, which passes its blocks twice, about
# as long.
BLOCKS_PER_10S = {"large-invariants": 0.8, "schema-verify": 1.8}
TRACE_BLOCKS_PER_10S = {"large-invariants": 0.4, "schema-verify": 0.8}

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Layers whose calls are counted as well as timed.
FUNCTIONS = (
    "manifold.parse_manifold", "manifold.normalize_manifold",
    "engine.dominated_by_product", "engine.dominated_by_nontrivial_circle_bundle",
    "engine.dominated_by_any_circle_bundle", "engine.presentable_by_products",
    "engine.cross_check", "engine.seifert_cover_parameters",
    "witness.verify_schema", "groups.stallings_fold",
)
TIMED_ONLY = ("witness.branched_cover_schema", "witness.schema_to_dict",
              "witness.schema_from_dict", "groups.rank_oracle",
              "bench.reference_check")
COUNTERS = {
    "manifold.parse_manifold.chars": "count",
    "engine.seifert_cover_parameters.degree_sum": "count",
    "engine.seifert_cover_parameters.calls_per_op": "1/op",
    "witness.branched_cover_schema.target_pieces": "count",
    "witness.json_bytes": "bytes",
    "groups.rank_oracle.cosets": "count",
    "groups.rank_oracle.skipped": "count",
    "witness.verify_schema.checks": "count",
    "witness.verify_schema.zero_check_passes": "count",
    "groups.stallings_fold.letters": "count",
    "groups.stallings_fold.vertices": "count",
    "bench.tracing_overhead": "ratio",
    "bench.fail_share": "ratio",
}
# Input properties whose share each run reports.
DECIDE_PROPERTIES = ("lcm_over_1e4", "oracle_skipped", "deadline_class")
PROPERTIES = {"large-invariants": DECIDE_PROPERTIES,
              "schema-verify": ("forged", "words_over_100")}
PER_LAYER = {
    **{f"{name}.{c}": u for name in FUNCTIONS for c, u in (("self_ms", "ms"), ("calls", "count"))},
    **{f"{name}.self_ms": "ms" for name in TIMED_ONLY},
    **COUNTERS,
    **{f"bench.fail.{cls}": "count" for cls in reference.FAILURE_CLASSES},
}


class DeadlineExceeded(BaseException):
    """Raised in the running operation when its deadline passes.

    A BaseException, so that no `except Exception` in the program swallows it.
    """


class Deadline:
    """One-shot interval timer that interrupts what it is armed for."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise DeadlineExceeded

    def arm(self, seconds: float | None = None) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds or self.seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


class Tally:
    """What a pass measured: latencies, failures by class, input properties."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: Counter = Counter()
        self.properties: Counter = Counter()
        self.json_bytes = 0
        self.oracle_skipped = 0
        self.blocks = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def ops_per_s(self) -> float:
        """Correct operations per second spent inside operations."""
        return (self.attempted - self.failed) / sum(self.latencies)


class Runner:
    """Runs blocks of one workload and tallies every operation."""

    def __init__(self, workload: str, seed: int, deadline: Deadline):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.blocks = gen.BLOCKS[workload]
        self.call = ops.verify if workload == "schema-verify" else ops.decide

    def run(self, blocks: int, tracer: tracing.Tracer | None = None) -> Tally:
        """Run blocks 0 .. blocks - 1."""
        tally = Tally()
        while tally.blocks < blocks:
            for kind, text, data in self.blocks(self.seed, tally.blocks):
                if tracer is not None:
                    tracer.begin_op(tally.attempted)
                seconds, outcome = self._timed(text, tracer)
                if tracer is None:
                    failure = self._classify(data, outcome)
                else:
                    failure = tracer.span("bench.reference_check",
                                          self._classify, data, outcome)
                tally.latencies.append(seconds)
                if failure is not None:
                    tally.failures[failure] += 1
                tally.properties.update(input_properties(self.workload, kind, data))
                tally.json_bytes += outcome.get("json_bytes", 0)
                tally.oracle_skipped += outcome.get("oracle_skipped", 0)
            tally.blocks += 1
        if tracer is not None:
            tracer.begin_op(tally.attempted)
        return tally

    def _timed(self, text: str, tracer) -> tuple[float, dict]:
        start = perf_counter()
        try:
            try:
                self.deadline.arm()
                if tracer is None:
                    outcome = self.call(text)
                else:
                    outcome = tracer.span("bench.op", self.call, text)
            finally:
                self.deadline.disarm()
        except DeadlineExceeded:
            outcome = {"timeout": self.deadline.seconds}
        except ValueError as exc:
            outcome = {"rejected": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:    # a crash is a result to report, not to stop on
            outcome = {"exception": f"{type(exc).__name__}: {exc}"}
        return perf_counter() - start, outcome

    def _classify(self, data, outcome: dict) -> str | None:
        if "timeout" in outcome:
            return "timeout"
        if "exception" in outcome:
            return "exception"
        try:
            if self.workload == "schema-verify":
                return reference.classify_schema(reference.genuine(data), outcome)
            return reference.classify_decide(data, outcome)
        except (KeyError, TypeError, AttributeError):
            return "unchecked"


def input_properties(workload: str, kind: str, data) -> list[str]:
    """The recorded input properties one operation has."""
    if workload == "schema-verify":
        return ([] if reference.genuine(data) else ["forged"]) + (
            ["words_over_100"] if data["words_max"] > 100 else [])
    norm = reference.normalize(data)
    out = ["deadline_class"] if kind == "deadline" else []
    if reference.fiber_lcm(norm) > 10_000:
        out.append("lcm_over_1e4")
    if (not any(p[0] in reference.ESSENTIAL for p in norm)
            and reference.free_rank(norm)[1] > ops.MAX_ORDER):
        out.append("oracle_skipped")
    return out


def setup_seconds(repeats: int, deadline: Deadline) -> float:
    """Median wall time of a fresh interpreter that imports threedom.cli and
    builds its argument parser: the fixed cost of every CLI call."""
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import threedom.cli as cli; cli.build_parser()")
    times = []
    for _ in range(repeats):
        start = perf_counter()
        # A blocking wait: subprocess's own timeout polls, which would
        # quantize the measurement.
        proc = subprocess.Popen([sys.executable, "-c", script, str(SRC)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        try:
            try:
                deadline.arm(60)
                status = proc.wait()
            finally:
                deadline.disarm()
        except DeadlineExceeded:
            proc.kill()
            proc.wait()
            raise RuntimeError("CLI start-up did not finish in 60 s") from None
        times.append(perf_counter() - start)
        if status != 0:
            raise RuntimeError(f"CLI start-up exited with {status}")
    return statistics.median(times)


def quantile(values: list[float], q: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted `values`.

    A weighted mean of all order statistics: value i weighs the mass that
    Beta(q(n+1), (1-q)(n+1)) puts on [i/n, (i+1)/n].  The weight spreads over
    the operations near the quantile, which ran at different times of the
    run, so one operation caught by a slow moment of a shared host moves the
    estimate less than it moves the single order statistic.
    """
    n = len(values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_c = lgamma(a + b) - lgamma(a) - lgamma(b)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            mass += exp(log_c + (a - 1) * log(t) + (b - 1) * log(1 - t))
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, values)) / sum(weights)


def block_count(per_10s: float, seconds: float) -> int:
    return max(1, round(per_10s * seconds / 10))


def end_to_end(runner: Runner, blocks: int) -> tuple[dict, Tally, list[str]]:
    start = perf_counter()
    tally = runner.run(blocks)
    wall = perf_counter() - start
    latencies = sorted(x * 1e3 for x in tally.latencies)
    n = len(latencies)
    metrics = {
        "ops_per_s": tally.ops_per_s(),
        "op_ms_p50": quantile(latencies, 0.5),
        "op_ms_p90": quantile(latencies, 0.9),
        "ok_share": (n - tally.failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(1 for x in latencies if x > metrics["op_ms_p90"])
    notes = [f"{tally.blocks} blocks, {n} operations in {wall:.1f} s; "
             f"op_ms_p90 from {n} samples, {beyond} beyond it"]
    return metrics, tally, notes


def traced(runner: Runner, blocks: int) -> tuple[dict, Tally, list[str]]:
    plain = runner.run(blocks)
    tracer = tracing.Tracer()
    originals = tracer.install()
    try:
        tally = runner.run(blocks, tracer)
    finally:
        tracer.restore(originals)
    self_ms, calls = tracer.self_ms(), tracer.calls()
    metrics = {name: tracer.counters[name] for name in PER_LAYER}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = calls[name]
    for name in FUNCTIONS + TIMED_ONLY:
        metrics[f"{name}.self_ms"] = self_ms[name]
    metrics.update({
        "witness.json_bytes": tally.json_bytes,
        "groups.rank_oracle.skipped": tally.oracle_skipped,
        "engine.seifert_cover_parameters.calls_per_op":
            calls["engine.seifert_cover_parameters"] / tally.attempted,
        "bench.tracing_overhead": tally.ops_per_s() / plain.ops_per_s(),
        "bench.fail_share": tally.failed / tally.attempted,
    })
    for cls in reference.FAILURE_CLASSES:
        metrics[f"bench.fail.{cls}"] = tally.failures[cls]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{runner.workload}-seed{runner.seed}.jsonl"
    tracer.write(path)
    notes = [f"{blocks} blocks run untraced, then traced: {tally.attempted} "
             f"operations each time, {len(tracer.spans)} spans written to "
             f"{path.relative_to(ROOT)}; counts below are of the traced pass"]
    return metrics, tally, notes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="Benchmark of threedom.")
    parser.add_argument("--workload", required=True, choices=sorted(gen.BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = Deadline(DEADLINE_S[args.workload])
    runner = Runner(args.workload, args.seed, deadline)
    if args.trace:
        blocks = block_count(TRACE_BLOCKS_PER_10S[args.workload], args.seconds)
        metrics, tally, notes = traced(runner, blocks)
        units = PER_LAYER
    else:
        setup = setup_seconds(SETUP_REPEATS, deadline)
        blocks = block_count(BLOCKS_PER_10S[args.workload], args.seconds)
        metrics, tally, notes = end_to_end(runner, blocks)
        metrics["setup_s"] = setup
        units = END_TO_END

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"deadline {deadline.seconds} s per operation")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:<52} {metrics[name]:>14.6g} {unit}")
    print(f"  fail_share {tally.failed / tally.attempted:.4f} ({tally.failed} of "
          f"{tally.attempted}): " + ", ".join(
              f"{cls}={tally.failures[cls]}" for cls in reference.FAILURE_CLASSES
              if tally.failures[cls]))
    print("  input shares: " + ", ".join(
        f"{name}={tally.properties[name] / tally.attempted:.4f}"
        for name in PROPERTIES[args.workload]))
    print(json.dumps({
        "correct": tally.failures["unchecked"] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0
