"""Tests for fault-isolated, observable experiment orchestration."""

import tracemalloc

import pytest

from repro.config import FleetConfig
from repro.errors import ConfigError
from repro.experiments import orchestrator
from repro.experiments.context import ExperimentContext
from repro.experiments.orchestrator import (
    ExperimentOutcome,
    OrchestrationResult,
    run_experiments,
    warm_datasets,
)
from repro.fleet import parallel


def tiny_ctx(**kwargs) -> ExperimentContext:
    return ExperimentContext.small(racks=2, runs_per_rack=2, **kwargs)


#: Fast experiments that do not need the fleet dataset.
FAST = ["fig1", "perf"]


def failing_registry(monkeypatch, failing_id, exc=None):
    """Make one experiment raise while the rest resolve normally."""
    from repro.experiments.registry import get_experiment as real

    exc = exc or RuntimeError("injected failure")

    def fake(experiment_id):
        if experiment_id == failing_id:
            def boom(ctx):
                raise exc
            return boom
        return real(experiment_id)

    monkeypatch.setattr(orchestrator, "get_experiment", fake)


class TestIsolation:
    def test_failure_is_contained_and_suite_completes(self, monkeypatch):
        failing_registry(monkeypatch, "perf")
        orch = run_experiments(tiny_ctx(), ["fig1", "perf", "fig4"])
        assert [o.experiment_id for o in orch.outcomes] == ["fig1", "perf", "fig4"]
        assert [o.status for o in orch.outcomes] == ["ok", "failed", "ok"]
        failed = orch.outcomes[1]
        assert failed.error == "RuntimeError: injected failure"
        assert not orch.ok
        assert set(orch.results) == {"fig1", "fig4"}

    def test_failure_summary_names_each_failure(self, monkeypatch):
        failing_registry(monkeypatch, "perf")
        orch = run_experiments(tiny_ctx(), ["fig1", "perf"])
        summary = orch.failure_summary()
        assert "1/2" in summary
        assert "perf" in summary and "injected failure" in summary
        assert OrchestrationResult(
            outcomes=[ExperimentOutcome("fig1", "ok")], results={}
        ).failure_summary() == ""

    def test_on_error_raise_propagates(self, monkeypatch):
        failing_registry(monkeypatch, "perf")
        with pytest.raises(RuntimeError, match="injected failure"):
            run_experiments(tiny_ctx(), ["perf"], on_error="raise")

    def test_on_error_raise_releases_tracemalloc(self, monkeypatch):
        """Regression: the re-raise path returned before the epilogue,
        leaving the process-wide tracer running and leaking its peak
        into every later tracemalloc measurement in the process."""
        assert not tracemalloc.is_tracing()
        failing_registry(monkeypatch, "perf")
        with pytest.raises(RuntimeError, match="injected failure"):
            run_experiments(
                tiny_ctx(), ["perf"], on_error="raise", trace_memory=True
            )
        assert not tracemalloc.is_tracing()

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ConfigError):
            run_experiments(tiny_ctx(), FAST, on_error="explode")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiments"):
            run_experiments(tiny_ctx(), ["figure-nope"])


def tracing_registry(monkeypatch) -> list[bool]:
    """Record ``tracemalloc.is_tracing()`` inside every experiment body."""
    from repro.experiments.registry import get_experiment as real

    seen: list[bool] = []

    def fake(experiment_id):
        body = real(experiment_id)

        def observed(ctx):
            seen.append(tracemalloc.is_tracing())
            return body(ctx)

        return observed

    monkeypatch.setattr(orchestrator, "get_experiment", fake)
    return seen


class TestOutcomeTelemetry:
    def test_serial_outcomes_carry_timing_and_memory(self, monkeypatch):
        """By default memory is the RSS high-water mark: the tracer is
        never started, during or after the run."""
        seen = tracing_registry(monkeypatch)
        orch = run_experiments(tiny_ctx(), FAST)
        assert seen == [False] * len(FAST)
        assert not tracemalloc.is_tracing()
        for outcome in orch.outcomes:
            assert outcome.ok
            assert outcome.wall_time_s > 0
            assert outcome.peak_tracemalloc_bytes is None
            assert outcome.peak_rss_bytes is not None
            assert outcome.peak_rss_bytes > 0
            assert outcome.metrics  # headline metrics captured

    def test_experiment_spans_recorded(self):
        ctx = tiny_ctx()
        run_experiments(ctx, ["fig1"])
        assert "experiment/fig1" in ctx.metrics.timers()

    def test_cache_miss_then_hit_attributed(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = ExperimentContext.small(racks=2, runs_per_rack=2)
        first.store_dir = store_dir
        orch = run_experiments(first, ["table1"])
        (outcome,) = orch.outcomes
        assert outcome.cache_misses == 2  # both regions generated
        assert outcome.cache_hits == 0

        second = ExperimentContext.small(racks=2, runs_per_rack=2)
        second.store_dir = store_dir
        orch = run_experiments(second, ["table1"])
        (outcome,) = orch.outcomes
        assert outcome.cache_hits == 2
        assert outcome.cache_misses == 0


class TestTraceMemory:
    IDS = ["table1", "fig1"]

    def test_traced_peaks_cover_analysis_after_an_untraced_warmup(
        self, monkeypatch
    ):
        ctx = tiny_ctx()
        warm_at_start: list[set[str]] = []
        real_start = tracemalloc.start

        def recording_start(*args):
            warm_at_start.append(set(ctx._datasets))
            real_start(*args)

        monkeypatch.setattr(tracemalloc, "start", recording_start)
        seen = tracing_registry(monkeypatch)
        orch = run_experiments(ctx, self.IDS, trace_memory=True)
        # One tracer per experiment, each started with both region-days
        # already generated, so generation never runs under the hook.
        assert warm_at_start == [{"RegA", "RegB"}] * len(self.IDS)
        assert seen == [True] * len(self.IDS)
        assert "warmup" in ctx.metrics.timers()
        assert not tracemalloc.is_tracing()
        for outcome in orch.outcomes:
            assert outcome.ok
            assert outcome.peak_tracemalloc_bytes > 0
            assert outcome.peak_rss_bytes > 0

    def test_metrics_identical_with_and_without_tracing(self):
        untraced = run_experiments(tiny_ctx(), self.IDS)
        traced = run_experiments(tiny_ctx(), self.IDS, trace_memory=True)
        for plain, with_tracer in zip(untraced.outcomes, traced.outcomes):
            assert plain.metrics == with_tracer.metrics  # exact equality

    def test_warmup_failure_skips_dataset_experiments(self, monkeypatch):
        def broken_warmup(ctx, regions=orchestrator.WARMUP_REGIONS):
            raise RuntimeError("generation exploded")

        monkeypatch.setattr(orchestrator, "warm_datasets", broken_warmup)
        orch = run_experiments(tiny_ctx(), ["fig1", "table1"], trace_memory=True)
        assert [o.status for o in orch.outcomes] == ["ok", "skipped"]
        assert "generation exploded" in orch.outcomes[1].error

    def test_pool_workers_never_inherit_the_tracer(self):
        """A forked worker would otherwise keep the parent's allocation
        hook for its whole life; the parent never reads it.  A pool
        ``run_windowed`` owns stops it by itself."""
        from repro.fleet.parallel import run_windowed

        seen = []
        tracemalloc.start()
        try:
            run_windowed(
                [0, 1],
                lambda executor, item: executor.submit(tracemalloc.is_tracing),
                lambda item, tracing: seen.append(tracing),
                jobs=2,
            )
            assert tracemalloc.is_tracing()  # the parent keeps its tracer
        finally:
            tracemalloc.stop()
        assert seen == [False, False]


def pool_ctx() -> ExperimentContext:
    """``tiny_ctx`` with its region-days built on a two-worker pool."""
    return ExperimentContext(
        fleet=FleetConfig(racks_per_region=2, runs_per_rack=2, seed=3, jobs=2)
    )


def exploding_rack_day(task, config, synthesizer):
    """Stands in for the pool's build task and always raises."""
    raise RuntimeError("generation exploded")


class TestParallel:
    """Experiments run one at a time; their datasets may be built in
    parallel (``--jobs``), and that changes nothing they report."""

    def test_parallel_metrics_identical_to_serial(self):
        ids = ["fig1", "perf", "table1"]
        serial = run_experiments(tiny_ctx(), ids)
        ctx = pool_ctx()
        parallel = run_experiments(ctx, ids)
        assert ctx.metrics.counter("dataset.parallel.tasks") > 0
        assert [o.experiment_id for o in parallel.outcomes] == ids
        assert all(o.ok for o in parallel.outcomes)
        for ser, par in zip(serial.outcomes, parallel.outcomes):
            assert ser.metrics == par.metrics  # exact float equality

    def test_parallel_isolates_failures_and_keeps_order(self, monkeypatch):
        failing_registry(monkeypatch, "perf")
        ctx = pool_ctx()
        orch = run_experiments(ctx, ["table1", "perf", "fig1"])
        assert ctx.metrics.counter("dataset.parallel.tasks") > 0
        assert [o.experiment_id for o in orch.outcomes] == ["table1", "perf", "fig1"]
        assert [o.status for o in orch.outcomes] == ["ok", "failed", "ok"]

    def test_warmup_failure_skips_dataset_experiments(self, monkeypatch):
        # A build task that raises in a pool worker fails the traced run's
        # warm-up: the dataset experiments are skipped with that root
        # cause, and the standalone one still runs.
        monkeypatch.setattr(parallel, "_build_task", exploding_rack_day)
        orch = run_experiments(pool_ctx(), ["fig1", "table1"], trace_memory=True)
        by_id = {o.experiment_id: o for o in orch.outcomes}
        assert by_id["fig1"].status == "ok"
        assert by_id["table1"].status == "skipped"
        assert "WorkerTaskError" in by_id["table1"].error
        assert "generation exploded" in by_id["table1"].error
        assert not orch.ok

    def test_warmup_populates_both_regions(self):
        ctx = tiny_ctx()
        warm_datasets(ctx)
        assert set(ctx._datasets) == {"RegA", "RegB"}
        assert "warmup" in ctx.metrics.timers()


class TestProgress:
    def test_progress_streams_in_requested_order(self, monkeypatch):
        failing_registry(monkeypatch, "perf")
        seen = []
        run_experiments(
            tiny_ctx(),
            ["fig1", "perf"],
            progress=lambda outcome, result: seen.append(
                (outcome.experiment_id, outcome.status, result is not None)
            ),
        )
        assert seen == [("fig1", "ok", True), ("perf", "failed", False)]
