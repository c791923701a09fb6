"""Paired per-operation timing of two checkouts on one benchmark workload.

    python tools/abtest.py OLD NEW --workload W --seed S [--blocks N]

OLD and NEW are checkout directories.  Each runs in a long-lived worker
process that imports `threedom` from CHECKOUT/src and the harness from this
checkout, so both sides run one harness: `perfbench.ops.verify` on
schema-verify, `perfbench.ops.decide` on large-invariants.  The inputs are
blocks 0 .. N-1 of the workload at the seed, made by `perfbench.gen`, which
calls no program code; N defaults to the blocks of a 50 s benchmark run.
The large-invariants deadline class is left out: each of its inputs runs
until the benchmark's deadline, and a worker has none.  A worker whose
program lacks a name the harness calls stops the comparison.

Both workers first run every input once untimed, filling first-use caches,
and their outputs are compared.  Then each input goes to both workers back
to back, alternating which goes first, and each times its own call.  It
prints JSON: the operation count, how many outputs differ, each side's
median milliseconds, and NEW/OLD as the median of the per-operation ratios
and as the ratio of the sums, each with a 95 % bootstrap interval (2000
resamples).  Below 1, NEW is faster; host drift hits both sides alike.

Absolute times do not reproduce on a shared host, so the performance
record is a chain of ratios against one fixed anchor commit per workload,
each giving the current code's outputs on that workload:
- large-invariants: 6b7965a, which memoized the decide path's leaf helpers;
- schema-verify: 1c740c3, the first commit that checks
  `source_genus_covers_rank`.  Its parent 99350b0 makes one check fewer
  per schema and differs on 152 of the 162 outputs of blocks 0-8 at seeds
  1, 2, 3 and 81; 1c740c3 and every later commit differ on none.
A change that alters a workload's outputs there names a new anchor.
"""

import argparse
import contextlib
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = """\
import hashlib, json, sys, time
sys.path[:0] = sys.argv[1:3]     # the checkout's src/, then the harness
from perfbench import ops
call = ops.verify if sys.argv[3] == "schema-verify" else ops.decide
for line in sys.stdin:
    text = json.loads(line)
    start = time.perf_counter()
    try:
        outcome = call(text)
    except ValueError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(repr(outcome).encode()).hexdigest()
    print(json.dumps([seconds, digest]), flush=True)
"""


def ask(worker: subprocess.Popen, text: str) -> list:
    """[seconds, output digest] of one operation in the worker."""
    worker.stdin.write(json.dumps(text) + "\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    if not line:
        raise SystemExit(f"the worker {worker.args[3]} stopped")
    return json.loads(line)


def interval(pairs: list[tuple[float, float]], statistic, rng: random.Random):
    """The statistic of the pairs, with a 95 % bootstrap interval."""
    draws = sorted(statistic(rng.choices(pairs, k=len(pairs)))
                   for _ in range(2000))
    return {"value": statistic(pairs), "ci95": [draws[49], draws[1949]]}


RATIOS = {  # NEW/OLD of (old seconds, new seconds) pairs
    "median_ratio": lambda p: statistics.median(n / o for o, n in p),
    "summed_ratio": lambda p: sum(n for _, n in p) / sum(o for o, _ in p),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the checkout compared against")
    parser.add_argument("new", type=Path, help="the checkout being measured")
    parser.add_argument("--workload", required=True,
                        choices=["large-invariants", "schema-verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int,
                        help="blocks to run (default: those of a 50 s run)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]   # bench imports ops
    from perfbench import bench, gen
    blocks = args.blocks or bench.block_count(
        bench.BLOCKS_PER_10S[args.workload], 50)
    texts = [text for block in range(blocks)
             for kind, text, _ in gen.BLOCKS[args.workload](args.seed, block)
             if kind != "deadline"]
    with contextlib.ExitStack() as stack:
        workers = [stack.enter_context(subprocess.Popen(
            [sys.executable, "-c", WORKER, str(checkout.resolve() / "src"),
             str(ROOT), args.workload], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True))
            for checkout in (args.old, args.new)]
        differ = sum(ask(workers[0], t)[1] != ask(workers[1], t)[1]
                     for t in texts)
        pairs = []
        for i, text in enumerate(texts):
            seconds = [0.0, 0.0]
            for side in (i % 2, 1 - i % 2):
                seconds[side] = ask(workers[side], text)[0]
            pairs.append((seconds[0], seconds[1]))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "blocks": blocks,
        "operations": len(pairs), "differing_outputs": differ,
        "old_median_ms": 1e3 * statistics.median(old for old, _ in pairs),
        "new_median_ms": 1e3 * statistics.median(new for _, new in pairs),
        **{name: interval(pairs, ratio, random.Random(args.seed))
           for name, ratio in RATIOS.items()},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
