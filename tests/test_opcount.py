"""A smoke test of tools/opcount.py, loaded by path: no CLI call is counted."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "opcount", Path(__file__).resolve().parents[1] / "tools" / "opcount.py")
opcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcount)

SOURCE = """\
def add(n):
    total = 0
    for i in range(n):
        total += step(i)
    return total


def step(i):
    return i + 1
"""


def test_counts_repeat_and_grow_with_the_loop(tmp_path):
    # The functions are compiled as if from a file of a package at
    # tmp_path; only frames of files under it are counted.
    namespace = {}
    exec(compile(SOURCE, str(tmp_path / "loop.py"), "exec"), namespace)
    add = namespace["add"]
    three, again, four = (opcount.count([lambda n=n: add(n)], tmp_path)
                          for n in (3, 3, 4))
    assert three == again
    assert four["total"] > three["total"]
    functions = three["functions"]
    assert set(functions) == {"loop.add", "loop.step"}
    assert three["total"] == sum(f["self"] for f in functions.values())
    assert functions["loop.add"]["cumulative"] == three["total"]
    assert functions["loop.step"]["cumulative"] == functions["loop.step"]["self"]

