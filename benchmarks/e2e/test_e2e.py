"""Self-test of the end-to-end benchmark at ``--smoke`` scale.

Run from the checkout root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

It runs every workload once, traced, and checks that the output keeps
what ``BENCHMARK.json`` declares: metric names and units, passing output
checks, trace coverage and loadable Chrome traces.  Two more tests force
failures - a wrong Table 1 and a renamed layer target - and check that
the benchmark reports them instead of hiding or crashing on them.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import common
import compare
import workloads

BENCHMARK = common.load_benchmark()
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def _units(entries: list[dict]) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke run of every workload: (process, result document, trace dir)."""
    tmp = tmp_path_factory.mktemp("e2e")
    out, traces = tmp / "result.json", tmp / "traces"
    proc = subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--seed", "3", "--trace", "1", "--smoke",
         "--out", str(out), "--trace-dir", str(traces)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, encoding="utf-8") as stream:
        return proc, json.load(stream), traces


def test_last_line_is_the_result_object(smoke):
    proc, document, _ = smoke
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == sum(r["attempted"] for r in document["workloads"].values())


def test_metric_names_and_units_match_benchmark_json(smoke):
    _, document, _ = smoke
    assert sorted(document["workloads"]) == sorted(WORKLOADS)
    for record in document["workloads"].values():
        assert {m: e["unit"] for m, e in record["e2e"].items()} == _units(BENCHMARK["end_to_end"])
        assert {m: e["unit"] for m, e in record["layers"].items()} == _units(BENCHMARK["per_layer"])
        assert all(entry["value"] > 0 for entry in record["e2e"].values())


def test_every_check_passes(smoke):
    _, document, _ = smoke
    for name, record in document["workloads"].items():
        assert record["checks"], name
        assert [c for c in record["checks"] if not c["ok"]] == []
        assert record["correct"] and record["failed"] == 0 and not record["warnings"]


def test_layers_cover_the_traced_repetition(smoke):
    _, document, _ = smoke
    for name, record in document["workloads"].items():
        assert record["layers"]["trace.coverage"]["value"] >= 0.9, name


def test_traces_load_as_chrome_trace_events(smoke):
    _, _, traces = smoke
    for name in WORKLOADS:
        with open(traces / f"{name}.trace.json", encoding="utf-8") as stream:
            trace = json.load(stream)
        spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
        assert spans, name
        for event in spans:
            assert {"name", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["dur"] >= 0


def test_compare_passes_a_file_against_itself_and_flags_a_regression(smoke, tmp_path):
    _, document, _ = smoke
    lines, ok = compare.compare(document, document, BENCHMARK)
    assert ok, lines
    slower = json.loads(json.dumps(document))
    entry = slower["workloads"]["store-build"]["e2e"]["latency_p50_ms"]
    for key in ("value", "q1", "q3"):
        entry[key] *= 2
    slower["workloads"]["packet-incast"]["layers"]["simnet.events"]["value"] += 1
    lines, ok = compare.compare(document, slower, BENCHMARK)
    assert not ok
    assert any("store-build" in line and line.endswith("worse") for line in lines)
    assert any("simnet.events" in line and "DIFFERS" in line for line in lines)


def test_forced_table1_mismatch_counts_as_failed(monkeypatch):
    def wrong_rows(workload, config):
        row = {"runs": 1, "server_runs": 1, "bursty_server_runs": 1, "bursty_run_fraction": 1.0, "bursts": 1}
        return {"RegA": row, "RegB": row}

    monkeypatch.setattr(workloads, "serve_table1", wrong_rows)
    record = workloads.run_workload("cli-cold", seed=3, seconds=0, trace=False, smoke=True)
    failed = {check["name"] for check in record["checks"] if not check["ok"]}
    assert failed == {"cli.table1_matches_serve"}
    assert record["failed"] == 1 and not record["correct"]
    assert record["e2e"]["latency_p50_ms"]["value"] > 0


def test_missing_layer_target_reads_null_and_keeps_end_to_end(monkeypatch):
    targets = [dict(entry) for entry in workloads.TARGETS["store-build"]]
    for entry in targets:
        if entry["layer"] == "fleet.demand":
            entry["target"] = "repro.fleet.demand:DemandModel.generate_renamed"
    monkeypatch.setitem(workloads.TARGETS, "store-build", targets)
    record = workloads.run_workload("store-build", seed=3, seconds=0, trace=True, smoke=True)
    layers = record["layers"]
    assert layers["demand.ms_per_rack_run"]["value"] is None
    assert layers["demand.share"]["value"] is None
    assert layers["fluid.ms_per_rack_run"]["value"] > 0
    assert any("fleet.demand" in warning for warning in record["warnings"])
    assert record["correct"]
    assert all(entry["value"] > 0 for entry in record["e2e"].values())
