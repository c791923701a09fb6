"""A smoke test of tools/abtest.py, loaded by path: the checkout against
itself on one schema-verify block."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "abtest", ROOT / "tools" / "abtest.py")
abtest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtest)


def test_a_checkout_against_itself(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))    # main() extends it
    assert abtest.main([str(ROOT), str(ROOT), "--workload", "schema-verify",
                        "--seed", "1", "--blocks", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["operations"], report["differing_outputs"]) == (18, 0)
    assert report["old_median_ms"] > 0 and report["new_median_ms"] > 0
    for name in ("median_ratio", "summed_ratio"):
        low, high = report[name]["ci95"]
        assert low <= report[name]["value"] <= high
        assert 0.5 < report[name]["value"] < 2
