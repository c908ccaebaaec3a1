"""Tests for the run-manifest schema, builder, and validator."""

import json

import pytest

from repro.config import FleetConfig
from repro.errors import ManifestError
from repro.experiments.orchestrator import ExperimentOutcome
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    validate_manifest,
    write_manifest,
)


#: The shard store every manifest records (root and geometry).
STORE = {"store_dir": "/tmp/store", "shard_racks": 64, "shard_hours": 12}


def outcomes():
    return [
        ExperimentOutcome(
            experiment_id="fig1",
            status="ok",
            wall_time_s=0.25,
            peak_tracemalloc_bytes=1024,
            peak_rss_bytes=2048,
            cache_hits=1,
            metrics={"share": 0.5},
        ),
        ExperimentOutcome(
            experiment_id="fig9",
            status="failed",
            wall_time_s=0.01,
            error="AnalysisError: boom",
        ),
    ]


class TestBuildManifest:
    def test_schema_valid_and_failed_propagates(self):
        manifest = build_manifest(
            FleetConfig(racks_per_region=3, runs_per_rack=2, seed=7),
            outcomes(),
            telemetry={"counters": {}, "timers": {}},
            **STORE,
        )
        validate_manifest(manifest)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION == 3
        assert manifest["status"] == "failed"
        assert manifest["failed"] == ["fig9"]
        assert manifest["config"]["seed"] == 7
        assert {name: manifest["config"][name] for name in STORE} == STORE
        assert "cache_dir" not in manifest["config"]
        assert "exp_jobs" not in manifest
        assert manifest["trace_memory"] is False
        entry = manifest["experiments"][0]
        assert entry["status"] == "ok"
        assert entry["metrics"] == {"share": 0.5}

    def test_all_ok_status(self):
        manifest = build_manifest(FleetConfig(), outcomes()[:1], **STORE)
        assert manifest["status"] == "ok"
        assert manifest["failed"] == []

    def test_trace_memory_recorded(self):
        manifest = build_manifest(FleetConfig(), outcomes(), trace_memory=True, **STORE)
        assert manifest["trace_memory"] is True
        assert manifest["experiments"][1]["peak_tracemalloc_bytes"] is None

    def test_numpy_metric_values_become_json_numbers(self):
        np = pytest.importorskip("numpy")
        outcome = ExperimentOutcome(
            experiment_id="fig1", status="ok", metrics={"x": np.float64(1.5)}
        )
        manifest = build_manifest(FleetConfig(), [outcome], **STORE)
        assert json.dumps(manifest)  # round-trips
        assert manifest["experiments"][0]["metrics"]["x"] == 1.5


class TestValidateManifest:
    def test_rejects_non_dict(self):
        with pytest.raises(ManifestError):
            validate_manifest([])

    def test_rejects_wrong_version(self):
        manifest = build_manifest(FleetConfig(), outcomes(), **STORE)
        manifest["schema_version"] = 99
        with pytest.raises(ManifestError, match="schema_version"):
            validate_manifest(manifest)

    def test_rejects_missing_outcome_fields(self):
        manifest = build_manifest(FleetConfig(), outcomes(), **STORE)
        del manifest["experiments"][0]["wall_time_s"]
        with pytest.raises(ManifestError, match="wall_time_s"):
            validate_manifest(manifest)

    def test_rejects_failed_without_error(self):
        manifest = build_manifest(FleetConfig(), outcomes(), **STORE)
        manifest["experiments"][1]["error"] = None
        with pytest.raises(ManifestError, match="without an error"):
            validate_manifest(manifest)

    def test_rejects_inconsistent_failed_list(self):
        manifest = build_manifest(FleetConfig(), outcomes(), **STORE)
        manifest["failed"] = []
        with pytest.raises(ManifestError, match="disagrees"):
            validate_manifest(manifest)

    def test_rejects_non_bool_trace_memory(self):
        manifest = build_manifest(FleetConfig(), outcomes(), **STORE)
        manifest["trace_memory"] = 1
        with pytest.raises(ManifestError, match="trace_memory"):
            validate_manifest(manifest)

    def test_accepts_manifest_written_before_trace_memory(self):
        manifest = build_manifest(FleetConfig(), outcomes(), **STORE)
        del manifest["trace_memory"]
        validate_manifest(manifest)

    def test_rejects_missing_store(self):
        manifest = build_manifest(FleetConfig(), outcomes(), **STORE)
        manifest["config"]["store_dir"] = None
        with pytest.raises(ManifestError, match="store_dir"):
            validate_manifest(manifest)

    def test_reports_every_problem_at_once(self):
        manifest = build_manifest(FleetConfig(), outcomes(), **STORE)
        manifest["schema"] = "nope"
        manifest["trace_memory"] = "yes"
        with pytest.raises(ManifestError) as excinfo:
            validate_manifest(manifest)
        message = str(excinfo.value)
        assert "schema" in message and "trace_memory" in message


class TestWriteManifest:
    def test_writes_valid_json(self, tmp_path):
        manifest = build_manifest(FleetConfig(), outcomes(), **STORE)
        path = write_manifest(manifest, str(tmp_path / "sub" / "manifest.json"))
        with open(path) as handle:
            loaded = json.load(handle)
        validate_manifest(loaded)
        assert loaded["failed"] == ["fig9"]

    def test_refuses_invalid_manifest(self, tmp_path):
        with pytest.raises(ManifestError):
            write_manifest({"schema": "bad"}, str(tmp_path / "m.json"))
