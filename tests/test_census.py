"""A smoke test of tools/census.py, loaded by path: no mutant is run."""

import ast
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "census", Path(__file__).resolve().parents[1] / "tools" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

SOURCE = "def f(x):\n    return not (x == 1 and x < 2)"
# Each operator's label, with the function the one mutant it makes reads as.
MUTANTS = {
    "drop not": "return x == 1 and x < 2",
    "and -> or": "return not (x == 1 or x < 2)",
    "== -> !=": "return not (x != 1 and x < 2)",
    "< -> <=": "return not (x == 1 and x <= 2)",
    "1 -> 2": "return not (x == 2 and x < 2)",
    "2 -> 3": "return not (x == 1 and x < 3)",
}


def test_sites_make_one_mutant_per_operator():
    tree = ast.parse(SOURCE)
    sites = list(census.sites(census.find(tree, "f")))
    assert sorted(label for _, _, label in sites) == sorted(MUTANTS)
    for node, new, label in sites:
        assert census.mutated(tree, node, new) == (
            "def f(x):\n    " + MUTANTS[label])
        # The tree is put back as it was.
        assert ast.unparse(tree) == SOURCE


def test_find_resolves_a_method():
    tree = ast.parse("class C:\n\n    def m(self):\n        return 1")
    method = census.find(tree, "C.m")
    assert isinstance(method, ast.FunctionDef) and method.name == "m"
    with pytest.raises(SystemExit, match="no function or class C.n"):
        census.find(tree, "C.n")
