"""CLI integration tests: export/analyze round trips, orchestrated runs,
failure isolation, and manifest schema guarantees."""

import json
import os
import tempfile
from types import SimpleNamespace

import pytest

from repro import units
from repro.experiments import cli, orchestrator
from repro.obs.manifest import MANIFEST_SCHEMA, validate_manifest
from tests.conftest import make_run, make_sync_run


class TestExportAnalyzeRoundTrip:
    def test_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "msdata")
        assert cli.main([
            "export", out, "--racks", "2", "--runs-per-rack", "2", "--seed", "7",
        ]) == 0
        assert "wrote 4 rack runs" in capsys.readouterr().out

        assert cli.main(["analyze", out]) == 0
        text = capsys.readouterr().out
        assert "Millisampler dataset analysis" in text
        assert "rack runs" in text
        assert "median burst length (ms)" in text

    def test_export_runs_per_rack_over_24_is_a_clear_error(self, tmp_path, capsys):
        rc = cli.main(["export", str(tmp_path / "x"), "--runs-per-rack", "25"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--runs-per-rack" in err
        assert "24" in err
        assert "ValueError" not in err

    def test_export_rejects_zero_runs_per_rack(self, tmp_path, capsys):
        assert cli.main(["export", str(tmp_path / "x"), "--runs-per-rack", "0"]) == 2
        assert "--runs-per-rack" in capsys.readouterr().err

    def test_analyze_converts_burst_length_with_sampling_interval(
        self, tmp_path, capsys
    ):
        """A 100 us export's 3-bucket bursts are 0.3 ms, not 3 ms."""
        from repro.io.msdata import write_sync_run

        interval = 1e-4
        bursty = 0.8 * units.SERVER_LINK_RATE * interval
        quiet = 0.05 * units.SERVER_LINK_RATE * interval
        series = [quiet] * 5 + [bursty] * 3 + [quiet] * 12
        runs = [
            make_run(series, host=f"h{i}", sampling_interval=interval)
            for i in range(2)
        ]
        write_sync_run(make_sync_run([], runs=runs), str(tmp_path))

        assert cli.main(["analyze", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        median_row = next(
            line for line in text.splitlines() if "median burst length" in line
        )
        assert "0.3" in median_row

    @staticmethod
    def assert_one_error_line(capsys, rc, expected):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert expected in err
        assert "Traceback" not in err

    def test_analyze_missing_directory_is_one_error_line(self, tmp_path, capsys):
        rc = cli.main(["analyze", str(tmp_path / "absent")])
        self.assert_one_error_line(capsys, rc, "no dataset files")

    def test_analyze_empty_directory_is_one_error_line(self, tmp_path, capsys):
        rc = cli.main(["analyze", str(tmp_path)])
        self.assert_one_error_line(capsys, rc, "no dataset files")

    def test_analyze_corrupt_file_is_one_error_line(self, tmp_path, capsys):
        (tmp_path / "rack__h03.ndjson").write_text('{"host": "h0", "in_bytes": [1\n')
        rc = cli.main(["analyze", str(tmp_path)])
        self.assert_one_error_line(capsys, rc, "invalid JSON")


def inject_failure(monkeypatch, failing_id="perf"):
    from repro.experiments.registry import get_experiment as real

    def fake(experiment_id):
        if experiment_id == failing_id:
            def boom(ctx):
                raise RuntimeError("stub experiment failure")
            return boom
        return real(experiment_id)

    monkeypatch.setattr(orchestrator, "get_experiment", fake)


FAST_ARGS = ["--racks", "2", "--runs-per-rack", "2", "--no-cache", "--quiet"]


class TestRunFailureIsolation:
    def test_suite_completes_with_nonzero_exit_and_manifest(
        self, tmp_path, capsys, monkeypatch
    ):
        inject_failure(monkeypatch)
        manifest_path = str(tmp_path / "out" / "manifest.json")
        out_dir = str(tmp_path / "results")
        rc = cli.main(
            ["run", "fig1", "perf", "fig4", "--out", out_dir,
             "--manifest", manifest_path] + FAST_ARGS
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAILURES (1/3" in captured.err
        assert "stub experiment failure" in captured.err
        # The other experiments still ran and saved their artifacts.
        assert (tmp_path / "results" / "fig1.txt").exists()
        assert (tmp_path / "results" / "fig4.txt").exists()
        assert not (tmp_path / "results" / "perf.txt").exists()

        with open(manifest_path) as handle:
            manifest = json.load(handle)
        validate_manifest(manifest)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["status"] == "failed"
        assert manifest["failed"] == ["perf"]
        by_id = {e["experiment_id"]: e for e in manifest["experiments"]}
        assert by_id["fig1"]["status"] == "ok"
        assert by_id["fig1"]["wall_time_s"] > 0
        assert isinstance(by_id["fig1"]["cache_hits"], int)
        assert isinstance(by_id["fig1"]["cache_misses"], int)
        assert by_id["fig1"]["metrics"]
        assert by_id["perf"]["status"] == "failed"
        assert "stub experiment failure" in by_id["perf"]["error"]

    def test_successful_run_exits_zero(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "manifest.json")
        assert cli.main(["run", "fig1", "--manifest", manifest_path] + FAST_ARGS) == 0
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        validate_manifest(manifest)
        assert manifest["status"] == "ok"
        assert manifest["config"]["racks_per_region"] == 2

    def test_unknown_experiment_exits_2(self, capsys):
        assert cli.main(["run", "no-such-figure"] + FAST_ARGS) == 2
        assert "unknown experiments" in capsys.readouterr().err


class TestSynthesisTelemetry:
    @staticmethod
    def assert_stage_timers(tmp_path, jobs):
        """The sketch noise is a nested ``synthesis/assemble/sketch``
        timer: one observation per rack-run, inside its assembly.
        Assembly and summarize are timed once per rack-run too, side by
        side: each run is summarized as soon as it is assembled, never
        inside the assembly span."""
        manifest_path = str(tmp_path / "manifest.json")
        assert cli.main(
            ["run", "table1", "--racks", "2", "--runs-per-rack", "1", "--no-cache",
             "--jobs", str(jobs), "--quiet", "--manifest", manifest_path]
        ) == 0
        with open(manifest_path) as handle:
            timers = json.load(handle)["telemetry"]["timers"]

        def total(suffix):
            matching = [
                stats for name, stats in timers.items()
                if name == suffix or name.endswith("/" + suffix)
            ]
            assert matching, suffix
            return sum(s["count"] for s in matching), sum(s["total_s"] for s in matching)

        sketch_count, sketch_s = total("synthesis/assemble/sketch")
        assemble_count, assemble_s = total("synthesis/assemble")
        summarize_count, _ = total("synthesis/summarize")
        assert sketch_count == 2 * 2 * 1  # regions x racks x runs per rack
        assert 0 < sketch_s <= assemble_s
        assert assemble_count == summarize_count == sketch_count
        assert not [name for name in timers if "assemble/" in name and "summarize" in name]

    def test_manifest_times_the_sketch_inside_assembly(self, tmp_path, capsys):
        self.assert_stage_timers(tmp_path, jobs=1)

    def test_parallel_build_merges_the_same_stage_timers(self, tmp_path, capsys):
        """Workers time their rack days; the build merges their snapshots
        into the same per-rack-run counts as a serial build."""
        self.assert_stage_timers(tmp_path, jobs=2)


class TestPolicyFlag:
    def test_policy_recorded_in_manifest(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "manifest.json")
        assert cli.main(
            ["run", "fig1", "--manifest", manifest_path,
             "--policy", "delay-driven:target_delay_steps=3"] + FAST_ARGS
        ) == 0
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert json.loads(manifest["config"]["policy"]) == {
            "name": "delay-driven", "params": {"target_delay_steps": 3},
        }

    def test_default_policy_recorded_when_flag_absent(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "manifest.json")
        assert cli.main(["run", "fig1", "--manifest", manifest_path] + FAST_ARGS) == 0
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert json.loads(manifest["config"]["policy"])["name"] == "dynamic-threshold"

    def test_unknown_policy_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "fig1", "--policy", "bogus"] + FAST_ARGS)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown sharing policy" in err
        assert "registered:" in err

    def test_unknown_policy_param_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "fig1", "--policy", "flow-aware:tails=3"] + FAST_ARGS)
        assert exc.value.code == 2
        assert "does not take parameter" in capsys.readouterr().err


class TestTraceMemoryFlag:
    IDS = ["table1", "fig1"]

    def manifest(self, tmp_path, name, *extra):
        path = str(tmp_path / name)
        assert cli.main(
            ["run", *self.IDS, "--manifest", path, *extra] + FAST_ARGS
        ) == 0
        with open(path) as handle:
            manifest = json.load(handle)
        validate_manifest(manifest)
        return manifest

    def test_default_run_records_rss_only(self, tmp_path, capsys):
        manifest = self.manifest(tmp_path, "plain.json")
        assert manifest["trace_memory"] is False
        for entry in manifest["experiments"]:
            assert entry["peak_tracemalloc_bytes"] is None
            assert entry["peak_rss_bytes"] > 0

    def test_traced_run_has_peaks_and_identical_metrics(self, tmp_path, capsys):
        plain = self.manifest(tmp_path, "plain.json")
        traced = self.manifest(tmp_path, "traced.json", "--trace-memory")
        assert traced["trace_memory"] is True
        assert all(e["peak_tracemalloc_bytes"] > 0 for e in traced["experiments"])

        def blob(manifest):
            return json.dumps(
                [[e["experiment_id"], e["metrics"]] for e in manifest["experiments"]],
                sort_keys=True,
            )

        assert blob(plain) == blob(traced)

    @pytest.mark.parametrize("command", [
        ["run", "fig1"],
        ["report", "unused.md"],
    ])
    def test_with_exp_jobs_is_a_one_line_error(self, command, capsys):
        """``--exp-jobs`` is gone (experiments run one at a time): asking
        for it, traced or not, is an unknown argument."""
        for extra in ([], ["--trace-memory"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(command + ["--exp-jobs", "2", *extra,
                                    "--racks", "2", "--runs-per-rack", "2",
                                    "--no-cache"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err == "millisampler-repro: error: unrecognized arguments: --exp-jobs 2\n"


class TestConfigErrors:
    """A bad configuration exits 2 with one ``error:`` line, for every
    command, instead of a ConfigError traceback."""

    @pytest.mark.parametrize("command", [
        ["run", "table1", "--racks", "-1"],
        ["serve", "--racks", "-1", "--port", "0"],
    ])
    def test_negative_racks_is_a_one_line_error(self, command, capsys):
        assert cli.main(command + ["--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err == "error: region rack count cannot be negative\n"

    @pytest.mark.parametrize("command", [
        ["run", "table1"],
        ["report", "never-written.md"],
        ["serve", "--port", "0"],
    ])
    def test_too_many_runs_per_rack_is_a_one_line_error(self, command, capsys):
        """Rejected by FleetConfig before any work, not reported as a
        failed experiment."""
        assert cli.main(command + ["--racks", "1", "--runs-per-rack", "25", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: cannot run a rack more often than hourly: 25 runs per rack over 24 hours\n"
        )
        assert "FAILED" not in captured.out

    @pytest.mark.parametrize("command", [
        ["run", "table1", "--racks", "1", "--runs-per-rack", "1"],
        ["report", "never-written.md"],
        ["serve", "--port", "0"],
        ["export", "never-written"],
    ])
    def test_out_of_range_policy_parameter_is_a_one_line_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--policy", "dynamic-threshold:alpha=-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "error: argument --policy: policy 'dynamic-threshold' rejected its parameters" in err
        assert "alpha must be positive" in err


def stub_serve(monkeypatch) -> SimpleNamespace:
    """Stub the query service and its server, so ``serve`` returns once
    configured without a pool or a socket; returns the configs the
    service received and the ports the server was asked to bind."""
    import repro.service

    seen = SimpleNamespace(configs=[], ports=[])

    class StubService:
        def __init__(self, config):
            seen.configs.append(config)

        def pool_jobs(self) -> int:
            return 1

    def run_server(service, *, port, ready, **_kwargs):
        seen.ports.append(port)
        ready(port)

    monkeypatch.setattr(repro.service, "QueryService", StubService)
    monkeypatch.setattr(repro.service, "run_server", run_server)
    return seen


class TestServeAndExportInputs:
    """Numeric inputs the config types do not bound are checked before
    anything starts: one ``error:`` line and exit 2."""

    @pytest.mark.parametrize("port", ["-5", "70000"])
    def test_out_of_range_port_is_a_one_line_error(self, port, monkeypatch, capsys):
        seen = stub_serve(monkeypatch)
        assert cli.main(["serve", "--port", port, "--racks", "1", "--no-cache"]) == 2
        assert capsys.readouterr().err == (
            f"error: --port must be between 0 and 65535, got {port}\n"
        )
        assert seen.configs == seen.ports == []

    def test_zero_request_threads_is_a_one_line_error(self, monkeypatch, capsys):
        """Zero request threads used to start one thread while the banner
        and ``/metrics`` reported 0."""
        seen = stub_serve(monkeypatch)
        rc = cli.main(["serve", "--port", "0", "--request-threads", "0", "--no-cache"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: request threads must be at least 1, got 0\n"
        )
        assert seen.configs == seen.ports == []

    def test_negative_export_seed_is_a_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "msdata"
        rc = cli.main(["export", str(out), "--racks", "1", "--runs-per-rack", "1",
                       "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: --seed cannot be negative, got -1\n"
        assert not out.exists()


class TestShardGeometry:
    """A shard geometry below 1 rack x 1 hour is one ``error:`` line and
    exit 2 for every command that opens a store, before anything runs."""

    @pytest.mark.parametrize("command", [
        ["run", "table1"],
        ["report", "never-written.md"],
        ["serve", "--port", "0"],
    ])
    @pytest.mark.parametrize("flag,value", [
        ("--shard-racks", "0"),
        ("--shard-racks", "-1"),
        ("--shard-hours", "0"),
    ])
    def test_degenerate_geometry_is_a_one_line_error(
        self, command, flag, value, tmp_path, capsys
    ):
        rc = cli.main(command + ["--racks", "1", "--runs-per-rack", "1",
                                 "--store-dir", str(tmp_path), flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            "error: shard geometry must be at least 1 rack x 1 hour"
        )
        assert "FAILED" not in captured.out
        assert os.listdir(tmp_path) == []  # nothing was built


def run_manifest(tmp_path, name, argv) -> dict:
    path = str(tmp_path / name)
    assert cli.main(argv + ["--manifest", path]) == 0
    with open(path) as handle:
        return json.load(handle)


def traffic(manifest) -> dict:
    return {
        e["experiment_id"]: (e["cache_hits"], e["cache_misses"])
        for e in manifest["experiments"]
    }


class TestStoreRoot:
    ARGS = ["run", "table1", "fig16", "--racks", "2", "--runs-per-rack", "1", "--quiet"]

    def test_manifest_counts_a_cold_build_and_a_warm_reopen(self, tmp_path):
        store = str(tmp_path / "store")
        cold = run_manifest(tmp_path, "cold.json", self.ARGS + ["--store-dir", store])
        assert traffic(cold) == {"table1": (0, 2), "fig16": (0, 0)}
        config = cold["config"]
        assert (config["store_dir"], config["shard_racks"], config["shard_hours"]) == (
            store, 64, 12
        )
        assert "cache_dir" not in config
        warm = run_manifest(tmp_path, "warm.json", self.ARGS + ["--store-dir", store])
        assert traffic(warm) == {"table1": (2, 0), "fig16": (0, 0)}
        assert [e["metrics"] for e in warm["experiments"]] == [
            e["metrics"] for e in cold["experiments"]
        ]

    def test_no_cache_leaves_no_directory_behind(self, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        manifest = run_manifest(tmp_path, "m.json", self.ARGS + ["--no-cache"])
        assert os.path.dirname(manifest["config"]["store_dir"]) == str(scratch)
        assert os.listdir(scratch) == []

        store = tmp_path / "store"
        manifest = run_manifest(
            tmp_path, "m.json", self.ARGS + ["--no-cache", "--store-dir", str(store)]
        )
        assert os.path.dirname(manifest["config"]["store_dir"]) == str(store)
        assert os.listdir(store) == []

    def test_no_cache_never_opens_an_existing_store(self, tmp_path):
        store = str(tmp_path / "store")
        run_manifest(tmp_path, "m.json", self.ARGS + ["--store-dir", store])
        built = sorted(os.listdir(store))
        manifest = run_manifest(
            tmp_path, "m.json", self.ARGS + ["--store-dir", store, "--no-cache"]
        )
        assert traffic(manifest) == {"table1": (0, 2), "fig16": (0, 0)}
        assert sorted(os.listdir(store)) == built

    def test_policy_sweep_arms_build_into_the_store_then_reopen_it(self, tmp_path):
        from repro.fleet.policies import registered_policy_specs

        arms = 2 * len(registered_policy_specs())  # one store per policy x region
        store = str(tmp_path / "store")
        argv = ["run", "policy-sweep", "--racks", "2", "--runs-per-rack", "1",
                "--jobs", "1", "--quiet", "--store-dir", store]
        cold = run_manifest(tmp_path, "cold.json", argv)
        assert traffic(cold) == {"policy-sweep": (0, arms)}
        built = sorted(os.listdir(store))
        assert len(built) == arms
        warm = run_manifest(tmp_path, "warm.json", argv)
        assert traffic(warm) == {"policy-sweep": (arms, 0)}
        assert sorted(os.listdir(store)) == built
        assert warm["experiments"][0]["metrics"] == cold["experiments"][0]["metrics"]


class TestAuditFlag:
    def test_audited_run_is_clean_and_counted_in_manifest(self, tmp_path, capsys):
        """Acceptance: the audited suite completes with zero violations,
        and the manifest telemetry records how much auditing ran."""
        manifest_path = str(tmp_path / "manifest.json")
        rc = cli.main(
            ["run", "fig1", "fig4", "--audit", "--manifest", manifest_path]
            + FAST_ARGS
        )
        assert rc == 0
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        counters = manifest["telemetry"]["counters"]
        assert counters.get("audit.violations", 0) == 0
        assert counters["audit.events"] > 0
        assert counters["audit.checks"] >= counters["audit.events"]

    def test_audit_off_records_no_audit_counters(self, tmp_path):
        manifest_path = str(tmp_path / "manifest.json")
        assert cli.main(["run", "fig1", "--manifest", manifest_path] + FAST_ARGS) == 0
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert not any(
            name.startswith("audit.")
            for name in manifest["telemetry"]["counters"]
        )

    def test_audit_violation_fails_the_experiment(self, tmp_path, capsys, monkeypatch):
        """An invariant violation inside one experiment is reported
        through the normal failure boundary: that experiment fails, the
        rest of the suite completes."""
        from repro.experiments.registry import get_experiment as real

        def fake(experiment_id):
            if experiment_id == "fig4":
                def corrupt(ctx):
                    from repro.config import BufferConfig
                    from repro.simnet.buffer import SharedBuffer

                    buffer = SharedBuffer(BufferConfig(shared_bytes=1000))
                    buffer.register_queue("q0")
                    buffer.admit("q0", 100)
                    buffer._shared_occupancy += 7  # corrupt the pool counter
                    buffer.admit("q0", 100)  # next event trips the auditor
                return corrupt
            return real(experiment_id)

        monkeypatch.setattr(orchestrator, "get_experiment", fake)
        manifest_path = str(tmp_path / "manifest.json")
        rc = cli.main(
            ["run", "fig1", "fig4", "--audit", "--manifest", manifest_path]
            + FAST_ARGS
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "shared-occupancy-sync" in captured.err
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["failed"] == ["fig4"]
        assert manifest["telemetry"]["counters"]["audit.violations"] >= 1


class TestProfileFlag:
    def test_profile_prints_timers(self, capsys):
        assert cli.main(["run", "fig1", "--profile"] + FAST_ARGS) == 0
        out = capsys.readouterr().out
        assert "profile: timers" in out
        assert "experiment/fig1" in out


class TestListStillWorks:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table2" in out
