"""Deterministic cost counts: bytecode executed per function of the program.

    python tools/opcount.py [--src DIR]
    python tools/opcount.py --compare OLD NEW

The first form runs a fixed list of `--json` CLI calls in-process through
`threedom.cli.run`, importing the package from DIR (by default this
checkout's `src/`): the corpus descriptions, every 7th input of
`engine.sweep_inputs()` and a few scale inputs, each through the four
`decide` queries, `witness product`, `witness ntbundle` and `crosscheck`.
One pass warms the first-use caches (the schema codec, for example); it
runs each call plain and with `--json` and hashes the arguments, exit
status, stdout and stderr of each.  In a second pass `sys.settrace` counts
the opcodes executed in every frame whose file is in the package.  Each
call parses its input afresh, so every memoized helper runs cold, except
on the shared `S3`, which keeps its `free_product_data`.  It prints JSON:
the inputs and calls, a hash of the input list, the hash of the first
pass's outputs, the total, and per (module, function) the opcodes executed
in the function itself ("self") and in it and everything it called
("cumulative"; a recursive call is counted once), summed over the code
objects of one name, such as two generator expressions in a function.

`--compare OLD NEW` takes two checkouts, runs the first form on each in a
process of its own with PYTHONHASHSEED=0, and prints the functions whose
self count differs, each module's total and the total, with NEW/OLD ratios.
It warns when the two checkouts make different input lists or print
different outputs: counts compare like with like only when both answer
alike.  The output hash covers only the calls listed above, not every
command or input the program takes.

Only Python bytecode of the package counts.  Work done in C does not: big
integer arithmetic, `str` repetition, the regex tokenizer, `json`'s
encoder, and every call into the standard library.  So moving work into C
reads as a gain; the counts say whether a change went the way it was
predicted to, and a speed claim still needs wall-time runs.  Tracing makes
the calls many times slower; a run takes about a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = [("decide", "product"), ("decide", "ntbundle"),
            ("decide", "anybundle"), ("decide", "presentable"),
            ("witness", "product"), ("witness", "ntbundle"), ("crosscheck",)]
# Large numbers from short texts: a free rank of 10 200 (the oracle at its
# bound), a 1000-summand sum, a Seifert piece whose cover's Euler number has
# 4300 digits, and 50 orders of 1000 digits, which every domination query
# refuses.
SCALE = ["Spherical(101) # Spherical(103)",
         " # ".join(["S2xS1"] * 1000),
         f"SFS(g=1; b={'3' * 4299}2; (3,1))",
         " # ".join(f"Spherical({10**999 + k})" for k in range(50))]


def inputs() -> list[str]:
    from threedom import cli, engine, manifold
    corpus = [text for text, _ in cli.load_corpus()]
    sweep = [manifold.describe(m)
             for m in list(engine.sweep_inputs())[::7]]
    return corpus + sweep + SCALE


def count(thunks, package: Path) -> dict:
    """Opcodes executed in the files under `package` while each thunk runs."""
    prefix = str(package) + os.sep
    own: Counter = Counter()
    cumulative: Counter = Counter()
    active: Counter = Counter()
    entries: list[int] = []
    total = 0

    def local(frame, event, arg):
        nonlocal total
        if event == "opcode":
            own[frame.f_code] += 1
            total += 1
        elif event == "return":
            code = frame.f_code
            active[code] -= 1
            start = entries.pop()
            if not active[code]:
                cumulative[code] += total - start
        return local

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        # Python 3.13 sends opcode events only to a frame whose f_trace is
        # set, and 3.12.1 none to a code object's frames until the trace
        # function is set again after f_trace_opcodes.
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        frame.f_trace = local
        if frame.f_code not in active:
            sys.settrace(call)
        active[frame.f_code] += 1
        entries.append(total)
        return local

    previous = sys.gettrace()
    for thunk in thunks:
        sys.settrace(call)
        try:
            thunk()
        finally:
            sys.settrace(previous)
    # Code objects of one name (two generator expressions in a function)
    # are added up.
    functions: dict = {}
    for code in own.keys() | cumulative.keys():
        entry = functions.setdefault(_name(code), Counter())
        entry.update({"self": own[code], "cumulative": cumulative[code]})
    return {"total": total, "functions": {
        name: dict(functions[name]) for name in sorted(functions)}}


def _name(code) -> str:
    return f"{Path(code.co_filename).stem}." \
           f"{getattr(code, 'co_qualname', code.co_name)}"


def measure(src: Path) -> dict:
    sys.path.insert(0, str(src))
    from threedom import cli
    texts = inputs()
    calls = [["--json", *command, text] for text in texts
             for command in COMMANDS]

    def quiet(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.run(argv)
        return argv, status, out.getvalue(), err.getvalue()

    outputs = hashlib.sha256()
    for argv in calls:      # the warm-up pass, plain and with --json
        for variant in (argv[1:], argv):
            outputs.update(repr(quiet(variant)).encode())
    result = count([lambda argv=argv: quiet(argv) for argv in calls],
                   Path(cli.__file__).parent)
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return {"python": sys.version.split()[0], "inputs": len(texts),
            "inputs_sha256": digest, "outputs_sha256": outputs.hexdigest(),
            "calls": len(calls), **result}


def compare(old: Path, new: Path) -> None:
    runs = []
    for checkout in (old, new):
        done = subprocess.run(
            [sys.executable, __file__, "--src", str(checkout / "src")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": "0"})
        runs.append(json.loads(done.stdout))
    before, after = runs
    if before["inputs_sha256"] != after["inputs_sha256"]:
        print("warning: the two checkouts make different input lists")
    if before["outputs_sha256"] != after["outputs_sha256"]:
        print("warning: the two checkouts print different outputs")
    print(f"{after['inputs']} inputs, {after['calls']} calls; self opcodes, "
          "OLD -> NEW")

    def row(name, a, b):
        ratio = f"{b / a:.4f}" if a else "new"
        print(f"  {name}: {a} -> {b} ({b - a:+d}, x{ratio})")

    old_f, new_f = before["functions"], after["functions"]
    for name in sorted(old_f.keys() | new_f.keys()):
        a = old_f.get(name, {}).get("self", 0)
        b = new_f.get(name, {}).get("self", 0)
        if a != b:
            row(name, a, b)
    modules = sorted({name.split(".")[0] for name in old_f.keys() | new_f.keys()})
    print("per module:")
    for module in modules:
        row(module, *(sum(v["self"] for k, v in f.items()
                          if k.split(".")[0] == module)
                      for f in (old_f, new_f)))
    row("total", before["total"], after["total"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory to import threedom from")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD", "NEW"), help="two checkouts")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    print(json.dumps(measure(args.src.resolve()), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
