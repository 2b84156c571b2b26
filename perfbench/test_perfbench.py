"""Tests of the benchmark itself: the p3-doc generator, span aggregation and
a quick harness self-test on the small ``a2`` fixture."""

import json
import sys

import pytest

import bench
import p3doc

A2_REPORT_SHA = "5df459533ee98821e8e07854e69f7ef9b3d4b6d42ce5dcb3e8df8d3111e60bf6"
A2_WORKLOAD = bench.fixture_verify(
    "a2", "a2", A2_REPORT_SHA, {"holds": 31, "fails": 4, "out-of-scope": 4}
)
SMALL_DIM = 4


def _run_small_doc(seed, tmp_path):
    doc = p3doc.generate(seed, max_dim=SMALL_DIM)
    path = tmp_path / f"doc{seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cli = [sys.executable, "-m", "commacat.cli"]
    validated = bench.invoke(cli + ["validate", str(path)], 60)
    ran = bench.invoke(cli + ["run", str(path)], 60)
    assert validated.exit_code == 0 and validated.stdout == b"valid\n", validated.stderr
    assert ran.exit_code == 0, ran.stderr
    return doc, json.loads(ran.stdout)


def test_seeds_change_matrices_but_not_structure():
    a, b = p3doc.generate(1), p3doc.generate(2)
    assert len(a["universes"]["U"]) == 40
    assert a["universes"] == b["universes"] and a["tasks"] == b["tasks"]
    assert a["modules"].keys() == b["modules"].keys()
    assert a["modules"] != b["modules"]
    assert p3doc.generate(1) == a


def test_seeds_give_the_same_hom_table_and_match_the_oracles(tmp_path):
    doc1, report1 = _run_small_doc(1, tmp_path)
    doc2, report2 = _run_small_doc(2, tmp_path)
    assert doc1["modules"] != doc2["modules"]
    table1 = next(t for t in report1["tasks"] if t["kind"] == "hom-table")
    table2 = next(t for t in report2["tasks"] if t["kind"] == "hom-table")
    assert table1 == table2
    assert p3doc.report_errors(doc1, report1) == []
    assert p3doc.report_errors(doc2, report2) == []


def test_aggregate_self_and_outermost_inclusive_time():
    # A [0, 10] calls B [1, 4], which calls A again [2, 3].
    trace = {"names": ["A", "B"], "spans": [[0, 0, 10, -1], [1, 1, 4, 0], [0, 2, 3, 1]]}
    agg = bench.aggregate(trace)
    assert agg["A"] == {"calls": 2, "incl_s": pytest.approx(10e-9), "self_s": pytest.approx(8e-9)}
    assert agg["B"] == {"calls": 1, "incl_s": pytest.approx(3e-9), "self_s": pytest.approx(2e-9)}


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_quick_mode_on_a2(capsys):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "a2", "--seed", "1", "--seconds", "1", "--trace", str(trace)]
        assert bench.main(argv, workloads={"a2": A2_WORKLOAD}) == 0
        out = _last_json(capsys)
        # the traced report must keep the reference sha, or the run is not correct
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        printed = {name: m["unit"] for name, m in out["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[section]}
    record = json.loads((bench.WORK / "result-a2-seed1-trace1.json").read_text(encoding="utf-8"))
    assert record["provenance"]["report_sha256"] == A2_REPORT_SHA
    metrics = record["metrics"]
    for name in bench.span_names():
        assert metrics[f"{name}.self_s"]["value"] <= metrics[f"{name}.incl_s"]["value"] + 1e-9
    assert metrics["linalg.rref.calls"]["value"] > 0
