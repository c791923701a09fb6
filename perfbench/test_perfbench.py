"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, gen, ops, reference, tracing  # noqa: E402


def _expected_table():
    path = ROOT / "src" / "threedom" / "data" / "corpus.txt.expected"
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith("#")]
    header = [h.strip() for h in rows[0]]
    return {cells[0].strip(): dict(zip(header[1:], (c.strip() for c in cells[1:])))
            for cells in rows[1:]}


def test_reference_reproduces_corpus_expected():
    table = _expected_table()
    assert len(table) == 14
    for description, expected in table.items():
        norm = reference.normalize(reference.parse(description))
        assert reference.expected_verdicts(norm) == expected, description


def test_reference_flags_degree_one_witness():
    # The program's answer for this piece on the seed: a degree-1 bundle
    # cover by the Euler-number-2 bundle over the torus.
    pieces = reference.parse("SFS(g=0; b=-3; (2,1), (4,1), (4,1))")
    norm = reference.normalize(pieces)
    problems = reference.check_finite_cover(norm[0], "bundle", 1, 2, 1)
    assert problems == ["lcm(alpha) = 4 does not divide degree 1"]
    cert = {"type": "finite_cover", "query": "ntbundle", "kind": "bundle",
            "base_genus": 1, "euler": 2, "degree": 1}
    outcome = {"verdicts": reference.expected_verdicts(norm),
               "routes": {"product": (False,) * 3, "bundle": (True,) * 3},
               "certificates": [cert]}
    assert reference.classify_decide(pieces, outcome) == "invalid_witness"
    assert reference.classify_decide(pieces, {**outcome, "certificates": [
        {**cert, "degree": 4, "base_genus": 1, "euler": 8}]}) is None


def test_reference_flags_forged_schemas():
    forged = gen._forged(gen._rng("test", 0, 0), "target_hyperbolic")
    assert '"target": "Hyperbolic"' in forged[1]
    assert not reference.genuine(forged[2])
    assert reference.classify_schema(False, {"passed": True, "checks": 3}) == "forged_accepted"
    assert reference.classify_schema(False, {"passed": True, "checks": 0}) == "zero_check_pass"
    assert reference.classify_schema(False, {"rejected": "ValueError"}) is None
    assert reference.classify_schema(True, {"passed": False, "checks": 2}) == "genuine_rejected"
    assert reference.genuine({"forgery": None, "words": (40, 1), "words_max": 41})
    assert not reference.genuine({"forgery": None, "words": (40, 2), "words_max": 42})


def test_generators_are_deterministic_per_seed():
    for workload, block in gen.BLOCKS.items():
        first = [block(7, i) for i in range(2)]
        assert first == [block(7, i) for i in range(2)], workload
        assert [t for _, t, _ in block(8, 0)] != [t for _, t, _ in first[0]], workload


def test_generated_schemas_match_the_program_output():
    # The generator writes schema texts itself, so that they depend on the
    # seed only; on the code they were written against they are exactly
    # what the program's --json output gives.
    from threedom.witness import (bundle_branched_cover_schema,
                                  product_branched_cover_schema, schema_to_dict)
    for kind, build in (("product", product_branched_cover_schema),
                        ("bundle", bundle_branched_cover_schema)):
        for n in (1, 2, 3, 4, 7, 40, 20_000):
            assert gen._schema_dict(kind, n) == schema_to_dict(build(n)), (kind, n)


def test_generated_text_spells_the_recorded_pieces():
    for kind, text, pieces in gen.large_block(3, 1):
        assert (reference.normalize(reference.parse(text))
                == reference.normalize(pieces)), text


def test_deadline_interrupts_a_hung_operation():
    runner = bench.Runner("large-invariants", 0, bench.Deadline(0.05))
    runner.call = lambda text: time.sleep(5)
    start = time.perf_counter()
    seconds, outcome = runner._timed("S3", None)
    assert outcome == {"timeout": 0.05}
    assert seconds < 1 and time.perf_counter() - start < 1


def test_tracer_restores_and_measures_self_time():
    before = [getattr(m, a) for m, a, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    originals = tracer.install()
    try:
        tracer.begin_op(0)
        ops.decide("Spherical(2) # Spherical(3)")
    finally:
        tracer.restore(originals)
    assert [getattr(m, a) for m, a, _, _ in tracing.TARGETS] == before
    calls = tracer.calls()
    assert calls["manifold.parse_manifold"] == 1
    assert calls["witness.branched_cover_schema"] == 4
    self_ms = tracer.self_ms()
    total = sum((end - start) * 1e3 for name, start, end, parent, _ in tracer.spans
                if parent == -1)
    assert abs(sum(self_ms.values()) - total) < 1e-6


def test_quantile_estimates_the_order_statistics():
    values = [float(x) for x in range(1, 1002)]
    assert abs(bench.quantile(values, 0.5) - 501) < 1e-6
    assert abs(bench.quantile(values, 0.9) - 901) < 1
    # One value far off moves the estimate by a small share of its excess.
    spiked = sorted(values[:900] + [901 * 2] + values[901:])
    assert bench.quantile(spiked, 0.9) - bench.quantile(values, 0.9) < 0.1 * 901


def test_deadline_class_inputs_come_once_per_two_blocks():
    kinds = [[kind for kind, _, _ in gen.large_block(5, i)] for i in range(4)]
    assert [k.count("deadline") for k in kinds] == [1, 0, 1, 0]
    assert bench.block_count(bench.BLOCKS_PER_10S["large-invariants"], 50) == 4
