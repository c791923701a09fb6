"""Mutation census: which mutants of the named functions no test kills.

    python tools/census.py [--test PATH ...] FILE:QUALNAME [FILE:QUALNAME ...]

for example

    python tools/census.py src/threedom/witness.py:verify_schema \
        src/threedom/witness.py:InessentialWitness._euler_characteristic

It copies the checkout to a temporary directory and changes only the copy.
Each named file is rewritten once through `ast.unparse`, and the test
selection must pass on that.  Then, in each named function, it applies one
operator at a time: a comparison swapped (== and !=, < and <=, > and >=,
in and not in, is and is not), `and` swapped with `or`, 1 added to an
integer constant, or a `not` dropped.  For each mutant it runs `pytest -x`
on the test selection (each --test PATH; by default tests/test_witness.py
and tests/test_acceptance.py), one process at a time, and prints each
mutant that survives as file:line and operator.  A mutant that runs longer than 5
times the unmutated run, plus 10 s, counts as killed.  It takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE,
         ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn,
         ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SYMBOLS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
           ast.Gt: ">", ast.GtE: ">=", ast.In: "in", ast.NotIn: "not in",
           ast.Is: "is", ast.IsNot: "is not"}


def find(tree: ast.Module, qualname: str) -> ast.AST:
    node = tree
    for name in qualname.split("."):
        node = next((n for n in node.body if getattr(n, "name", None) == name
                     and isinstance(n, (ast.ClassDef, ast.FunctionDef))), None)
        if node is None:
            raise SystemExit(f"no function or class {qualname}")
    return node


def sites(function: ast.AST):
    """(node, mutant node, label) for each mutation the operators make."""
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                new = SWAPS[type(op)]
                ops = [*node.ops[:i], new(), *node.ops[i + 1:]]
                yield (node, ast.Compare(node.left, ops, node.comparators),
                       f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}")
        elif isinstance(node, ast.BoolOp):
            swapped = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            yield (node, ast.BoolOp(swapped, node.values),
                   f"{type(node.op).__name__.lower()} -> "
                   f"{type(swapped).__name__.lower()}")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield (node, ast.Constant(node.value + 1),
                   f"{node.value} -> {node.value + 1}")
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, node.operand, "drop not"


def mutated(tree: ast.Module, node: ast.AST, new: ast.AST) -> str:
    """The module's source with new in node's place; the tree is unchanged."""
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, new)
                try:
                    return ast.unparse(tree)
                finally:
                    setattr(parent, field, node)
            if isinstance(value, list) and any(v is node for v in value):
                i = next(i for i, v in enumerate(value) if v is node)
                value[i] = new
                try:
                    return ast.unparse(tree)
                finally:
                    value[i] = node
    raise ValueError("node is not in the tree")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="FILE:QUALNAME")
    parser.add_argument("--test", action="append", metavar="PATH",
                        help="a pytest selection; give it again for more")
    args = parser.parse_args(argv)
    targets = [target.split(":") for target in args.targets]
    tests = args.test or ["tests/test_witness.py", "tests/test_acceptance.py"]

    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}

        def passes(timeout=None) -> bool:
            try:
                return subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q",
                     "-p", "no:cacheprovider", *tests], cwd=copy,
                    env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL, timeout=timeout,
                ).returncode == 0
            except subprocess.TimeoutExpired:
                return False

        trees = {path: ast.parse((copy / path).read_text())
                 for path, _ in targets}
        functions = [(path, qualname, find(trees[path], qualname))
                     for path, qualname in targets]
        for path, tree in trees.items():
            (copy / path).write_text(ast.unparse(tree))
        start = time.monotonic()
        if not passes():
            print("the test selection fails on the unmutated checkout")
            return 1
        timeout = 5 * (time.monotonic() - start) + 10
        mutants, survivors, start = 0, 0, time.monotonic()
        for path, qualname, function in functions:
            tree = trees[path]
            for node, new, label in list(sites(function)):
                (copy / path).write_text(mutated(tree, node, new))
                mutants += 1
                if passes(timeout):
                    survivors += 1
                    print(f"{path}:{node.lineno}: {qualname}: {label}",
                          flush=True)
            (copy / path).write_text(ast.unparse(tree))
        print(f"{mutants} mutants, {survivors} survived, "
              f"{time.monotonic() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
