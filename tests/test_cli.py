import json

import pytest

from threedom import engine
from threedom.cli import evaluate_corpus_entry, load_corpus, run
from threedom.witness import product_branched_cover_schema, schema_to_dict


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


def test_unknown_command_exit_one(capsys):
    code, _, err = invoke(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err


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
    assert "Nil" in out
    assert "e = 1" in out


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


def test_verify_command_detects_fault(tmp_path, capsys):
    blob = schema_to_dict(product_branched_cover_schema(2))
    blob["branch_components"] = 5
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(blob))
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 2
    assert "VERIFICATION FAILED" in out


def test_crosscheck_single(capsys):
    code, out, _ = invoke(capsys, "crosscheck", "Sol")
    assert code == 0
    assert "CONSISTENT" in out


def test_crosscheck_needs_input_or_sweep(capsys):
    code, _, err = invoke(capsys, "crosscheck")
    assert code == 1


def test_corpus_command(capsys):
    code, out, _ = invoke(capsys, "corpus")
    assert code == 0
    assert "0 mismatches" in out


def test_corpus_loader_and_evaluator():
    entries = load_corpus()
    assert len(entries) >= 14
    for description, expected in entries:
        assert evaluate_corpus_entry(description) == expected
