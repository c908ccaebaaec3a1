"""Tests for rack-run synthesis and dataset generation."""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.config import FleetConfig
from repro.core.run import SyncRun
from repro.errors import ConfigError, SimulationError
from repro.fleet import shards
from repro.fleet.dataset import plan_region
from repro.fleet.rackrun import RackRunSynthesizer, sketch_estimates
from repro.workload.region import REGION_A, build_region_workloads
from tests.fleet.dataset_reference import (
    _region_items,
    generate_region_dataset,
    iter_region_summaries,
    rack_days,
    summarize_batches,
)


@pytest.fixture
def workload(rng):
    return build_region_workloads(REGION_A, racks=3, rng=rng, servers_per_rack=24)[0]


class TestSketchEstimates:
    def test_zero_flows_estimate_zero(self, rng):
        estimates = sketch_estimates(np.zeros(10), rng)
        assert np.allclose(estimates, 0.0)

    def test_small_counts_nearly_exact(self, rng):
        estimates = sketch_estimates(np.full(200, 10.0), rng)
        assert abs(np.mean(estimates) - 10.0) < 2.0

    def test_saturation_for_huge_counts(self, rng):
        estimates = sketch_estimates(np.full(20, 10_000.0), rng)
        assert np.all(estimates >= 400)

    def test_monotone_in_expectation(self, rng):
        low = sketch_estimates(np.full(500, 20.0), rng).mean()
        high = sketch_estimates(np.full(500, 80.0), rng).mean()
        assert high > low


class TestRackRunSynthesizer:
    def test_produces_valid_sync_run(self, workload, rng):
        synthesizer = RackRunSynthesizer()
        sync_run = synthesizer.synthesize(workload, hour=6, rng=rng)
        assert isinstance(sync_run, SyncRun)
        assert sync_run.servers == 24
        assert sync_run.rack == workload.rack
        assert 100 <= sync_run.buckets <= 2000

    def test_run_length_near_paper_average(self, workload):
        """Section 5: trimmed runs average 1.85 s at 1 ms sampling."""
        synthesizer = RackRunSynthesizer()
        lengths = [
            synthesizer.synthesize(workload, 6, np.random.default_rng(s)).buckets
            for s in range(10)
        ]
        assert 1700 < np.mean(lengths) < 2000

    def test_utilization_never_exceeds_line_rate(self, workload, rng):
        sync_run = RackRunSynthesizer().synthesize(workload, 6, rng)
        for run in sync_run.runs:
            assert run.ingress_utilization().max() <= 1.0 + 1e-9

    def test_metadata_carries_tasks(self, workload, rng):
        sync_run = RackRunSynthesizer().synthesize(workload, 6, rng)
        tasks = {run.meta.task for run in sync_run.runs}
        assert tasks == set(workload.placement.tasks)
        assert sync_run.extras["distinct_tasks"] == workload.placement.distinct_tasks()

    def test_switch_counters_populated(self, workload, rng):
        sync_run = RackRunSynthesizer().synthesize(workload, 6, rng)
        assert sync_run.switch_ingress_bytes > 0
        assert sync_run.switch_discard_bytes >= 0

    def test_invalid_hour_rejected(self, workload, rng):
        with pytest.raises(SimulationError):
            RackRunSynthesizer().synthesize(workload, hour=24, rng=rng)

    def test_retx_only_when_drops(self, workload, rng):
        sync_run = RackRunSynthesizer().synthesize(workload, 6, rng)
        total_retx = sum(run.in_retx_bytes.sum() for run in sync_run.runs)
        if sync_run.switch_discard_bytes == 0:
            assert total_retx == 0


class TestDatasetGeneration:
    def test_streaming_generation(self, rng):
        config = FleetConfig(racks_per_region=3, runs_per_rack=2, seed=1)
        pairs = list(iter_region_summaries(REGION_A, config))
        assert len(pairs) == 6
        racks = {summary.rack for summary, _ in pairs}
        assert len(racks) == 3

    def test_region_dataset_table1(self):
        config = FleetConfig(racks_per_region=3, runs_per_rack=2, seed=1)
        dataset = generate_region_dataset(REGION_A, config)
        row = dataset.table1_row()
        assert row.runs == 6
        assert row.server_runs == 6 * 92
        assert 0 < row.bursty_server_runs <= row.server_runs
        assert row.bursts > 0

    def test_rack_days_grouping(self):
        config = FleetConfig(racks_per_region=2, runs_per_rack=3, seed=1)
        dataset = generate_region_dataset(REGION_A, config)
        days = rack_days(dataset)
        assert len(days) == 2
        assert all(len(day.summaries) == 3 for day in days)

    def test_deterministic_given_seed(self):
        config = FleetConfig(racks_per_region=2, runs_per_rack=2, seed=7)
        a = generate_region_dataset(REGION_A, config)
        b = generate_region_dataset(REGION_A, config)
        assert [s.contention.mean for s in a.summaries] == [
            s.contention.mean for s in b.summaries
        ]

    def test_hours_spread_across_day(self):
        config = FleetConfig(racks_per_region=4, runs_per_rack=10, seed=2)
        dataset = generate_region_dataset(REGION_A, config)
        hours = {summary.hour for summary in dataset.summaries}
        assert len(hours) >= 10

    def test_too_many_runs_rejected(self):
        with pytest.raises(ConfigError):
            config = FleetConfig(racks_per_region=1, runs_per_rack=10, hours=5, seed=1)
            list(iter_region_summaries(REGION_A, config))

    def test_progress_callback_invoked(self):
        config = FleetConfig(racks_per_region=2, runs_per_rack=2, seed=1)
        calls = []
        generate_region_dataset(
            REGION_A, config, progress=lambda done, total: calls.append((done, total))
        )
        assert calls[-1] == (4, 4)


def assert_sync_runs_equal(a: SyncRun, b: SyncRun):
    assert a.rack == b.rack and a.region == b.region and a.hour == b.hour
    assert len(a.runs) == len(b.runs)
    for run_a, run_b in zip(a.runs, b.runs):
        assert run_a.meta == run_b.meta
        for field in (
            "in_bytes",
            "out_bytes",
            "in_retx_bytes",
            "out_retx_bytes",
            "in_ecn_bytes",
            "conn_estimate",
        ):
            assert np.array_equal(getattr(run_a, field), getattr(run_b, field)), field


class TestBatchSynthesis:
    """synthesize_batch must be byte-identical to per-item synthesize."""

    def test_batch_matches_per_item(self, rng):
        workloads = build_region_workloads(REGION_A, racks=3, rng=rng)
        synthesizer = RackRunSynthesizer()
        items = []
        for index, workload in enumerate(workloads):
            for hour in (2, 14):
                items.append((workload, hour, np.random.SeedSequence([index, hour])))
        batched = synthesizer.synthesize_batch(items)
        assert len(batched) == len(items)
        for (workload, hour, _), got in zip(items, batched):
            seed = np.random.SeedSequence(
                [workloads.index(workload), hour]
            )
            expected = synthesizer.synthesize(workload, hour, seed)
            assert_sync_runs_equal(expected, got)

    def test_batch_records_stage_timers(self, rng):
        from repro.obs.metrics import Metrics

        workloads = build_region_workloads(REGION_A, racks=1, rng=rng)
        metrics = Metrics()
        RackRunSynthesizer().synthesize_batch(
            [(workloads[0], 6, np.random.SeedSequence(3))], metrics=metrics
        )
        timers = metrics.snapshot()["timers"]
        for stage in ("synthesis/demand", "synthesis/fluid", "synthesis/assemble"):
            assert stage in timers and timers[stage]["count"] >= 1

    def test_reduce_keeps_one_run_alive(self, rng):
        """``reduce`` sees every run's stacked series as soon as they are
        built, in item order, and the previous run is gone by then; the
        results equal reducing the eager list of raw runs."""
        workloads = build_region_workloads(REGION_A, racks=2, rng=rng)
        items = [
            (workload, hour, np.random.SeedSequence([index, hour]))
            for index, workload in enumerate(workloads)
            for hour in (3, 9)
        ]
        synthesizer = RackRunSynthesizer()
        alive = []

        def reduce(run):
            alive.append(weakref.ref(run))
            assert all(ref() is None for ref in alive[:-1])
            return run.switch_discard_bytes, run.in_bytes[0].sum()

        reduced = synthesizer.synthesize_batch(items, reduce=reduce)
        eager = synthesizer.synthesize_batch(items)
        assert reduced == [
            (run.switch_discard_bytes, run.runs[0].in_bytes.sum()) for run in eager
        ]

    def test_batch_output_views_are_read_only(self, rng):
        """Delivered and retransmitted series are rows of the run's
        read-only stacked copies of the fluid outputs; an in-place
        writer fails loudly."""
        workload = build_region_workloads(REGION_A, racks=1, rng=rng)[0]
        run = RackRunSynthesizer().synthesize(workload, 4, np.random.SeedSequence(1)).runs[0]
        for series in (run.in_bytes, run.in_retx_bytes):
            with pytest.raises(ValueError):
                series[0] = 1.0

    def test_summarize_batches_working_set(self):
        """One 16-run fluid batch of 92-server racks peaks at no more than
        6 MB of traced allocations per run: the fluid loop steps only the
        live columns and keeps only the outputs synthesis reads, assembly
        copies no series and each run is summarized as soon as it is
        assembled (stepping every column measured 7.0 MB; the full six
        outputs, five series copies and a batch of live runs peaked at
        ~20 MB)."""
        config = FleetConfig(racks_per_region=8, runs_per_rack=2, seed=11)
        items = list(_region_items(plan_region(REGION_A, config), config))
        assert len(items) == shards.FLUID_BATCH == 16
        assert {workload.placement.servers for workload, _, _ in items} == {92}
        tracemalloc.start()
        try:
            summaries = list(summarize_batches(items, config))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(summaries) == 16
        assert peak / len(items) <= 6e6, f"{peak / len(items) / 1e6:.2f} MB per run"

    def test_fluid_batch_size_does_not_change_dataset(self, monkeypatch):
        """The batch size is an execution detail: any value produces the
        same region-day, byte for byte."""
        config = FleetConfig(racks_per_region=2, runs_per_rack=3, seed=7)
        datasets = []
        for fluid_batch in (1, 3, 16):
            monkeypatch.setattr(shards, "FLUID_BATCH", fluid_batch)
            datasets.append(generate_region_dataset(REGION_A, config))
        for other in datasets[1:]:
            for a, b in zip(datasets[0].summaries, other.summaries):
                assert a.rack == b.rack and a.hour == b.hour
                assert a.contention.mean == b.contention.mean
                assert a.total_in_bytes == b.total_in_bytes

    def test_batch_rejects_bad_hour(self, rng):
        workloads = build_region_workloads(REGION_A, racks=1, rng=rng)
        with pytest.raises(SimulationError):
            RackRunSynthesizer().synthesize_batch(
                [(workloads[0], 99, np.random.SeedSequence(0))]
            )
