"""The object-form region dataset: the ``==`` oracle the shard store's
row path is checked against.

A store build reduces every run straight to float64 table rows
(:func:`repro.fleet.shards.task_tables`).  Before that, builds reduced
each run to a :class:`~repro.analysis.summary.RunSummary` (with its
:class:`~repro.analysis.bursts.Burst` objects), grouped the summaries
by rack day and flattened them into the tables one Python tuple per
row (:func:`encode_tables`); a pool build fanned rack days out and
regrouped them into rack stripes (:func:`rack_day_build`).  That path
lives here, unchanged in what it computes, so tests and benchmarks can
hold the row path to it byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.analysis.summary import RunSummary, summarize_run
from repro.config import FleetConfig
from repro.core.run import StackedRun
from repro.fleet.dataset import RackRunPlan, RegionDataset, plan_region, run_rng
from repro.fleet.parallel import resolve_jobs, run_windowed
from repro.fleet.rackrun import BatchItem, RackRunSynthesizer
from repro.fleet import shards
from repro.fleet.shards import (
    BURST_COLUMNS,
    RUN_COLUMNS,
    SERVER_COLUMNS,
    RegionShardStore,
    ShardTask,
    _write_shard,
    plan_region_shards,
)
from repro.obs.metrics import Metrics
from repro.workload.region import RackWorkload, RegionSpec


@dataclass
class RackDay:
    """One rack's day of runs, reduced."""

    rack: str
    region: str
    colocated: bool
    summaries: list[RunSummary]


def rack_days(dataset: RegionDataset) -> list[RackDay]:
    """A region's summaries grouped by rack, in rack-name order."""
    grouped: dict[str, list[RunSummary]] = {}
    for summary in dataset.summaries:
        grouped.setdefault(summary.rack, []).append(summary)
    return [
        RackDay(
            rack=rack,
            region=dataset.region,
            colocated=bool(runs[0].extras.get("colocated", False)),
            summaries=runs,
        )
        for rack, runs in sorted(grouped.items())
    ]


def plan_items(plan: RackRunPlan, config: FleetConfig) -> list[BatchItem]:
    """One rack day as batch items, each on its own seed-stream leaf."""
    return [
        (
            plan.workload,
            hour,
            run_rng(plan.workload.region, config.seed, plan.rack_index, run_index),
        )
        for run_index, hour in enumerate(plan.hours)
    ]


def shard_items(tasks: Iterable[ShardTask], config: FleetConfig) -> Iterator[BatchItem]:
    """Every run of ``tasks`` as a batch item, in the store's run-stream
    order: shard by shard, rack-major and hour-ascending within one."""
    for task in tasks:
        for plan, run_indices in zip(task.plans, task.run_indices):
            for run_index in run_indices:
                yield (
                    plan.workload,
                    plan.hours[run_index],
                    run_rng(task.key.region, config.seed, plan.rack_index, run_index),
                )


def summarize_batches(
    items: Iterable[BatchItem],
    config: FleetConfig,
    synthesizer: RackRunSynthesizer | None = None,
    metrics: Metrics | None = None,
) -> Iterator[tuple[RunSummary, RackWorkload]]:
    """Synthesize ``items`` in consecutive fluid batches of
    :data:`~repro.fleet.shards.FLUID_BATCH` runs and reduce every run to
    its summary object."""
    synthesizer = synthesizer or RackRunSynthesizer(policy=config.policy)
    metrics = metrics if metrics is not None else Metrics()

    def summarize(run: StackedRun) -> RunSummary:
        with metrics.span("synthesis/summarize"):
            return summarize_run(run)

    items = iter(items)
    while chunk := list(islice(items, shards.FLUID_BATCH)):
        summaries = synthesizer.synthesize_batch(chunk, metrics=metrics, reduce=summarize)
        for summary, (workload, _hour, _rng) in zip(summaries, chunk):
            yield summary, workload


def synthesize_rack_day(
    plan: RackRunPlan,
    config: FleetConfig,
    synthesizer: RackRunSynthesizer | None = None,
    metrics: Metrics | None = None,
) -> list[RunSummary]:
    """One rack's reduced day: the unit of work of a rack-day pool."""
    return [
        summary
        for summary, _workload in summarize_batches(
            plan_items(plan, config), config, synthesizer, metrics
        )
    ]


def _region_items(plans: list[RackRunPlan], config: FleetConfig) -> Iterator[BatchItem]:
    return (item for plan in plans for item in plan_items(plan, config))


def iter_region_summaries(
    spec: RegionSpec,
    config: FleetConfig,
    synthesizer: RackRunSynthesizer | None = None,
    metrics: Metrics | None = None,
) -> Iterator[tuple[RunSummary, RackWorkload]]:
    """Lazily generate (summary, workload) pairs for a region-day, rack
    by rack, in fluid batches that cross rack boundaries."""
    return summarize_batches(
        _region_items(plan_region(spec, config), config), config, synthesizer, metrics
    )


def generate_region_dataset(
    spec: RegionSpec,
    config: FleetConfig,
    synthesizer: RackRunSynthesizer | None = None,
    progress: Callable[[int, int], None] | None = None,
    metrics: Metrics | None = None,
) -> RegionDataset:
    """One region-day generated serially, in memory, as summary objects.

    Every *planned* rack contributes its workload in rack order, even
    racks that scheduled zero runs, exactly as a store records them.
    """
    metrics = metrics if metrics is not None else Metrics()
    plans = plan_region(spec, config)
    total = sum(len(plan.hours) for plan in plans)
    summaries: list[RunSummary] = []
    with metrics.span(f"generate/{spec.name}"):
        for summary, _workload in summarize_batches(
            _region_items(plans, config), config, synthesizer, metrics
        ):
            summaries.append(summary)
            if progress is not None:
                progress(len(summaries), total)
    metrics.incr("dataset.generated_runs", len(summaries))
    return RegionDataset(
        region=spec.name,
        summaries=summaries,
        workloads=[plan.workload for plan in plans],
    )


_burst_fields = attrgetter(*BURST_COLUMNS[2:])
_server_fields = attrgetter(*SERVER_COLUMNS[1:])


def encode_tables(summaries: list[RunSummary], rack_ids: list[int]) -> dict[str, np.ndarray]:
    """One shard's summaries as its tables, one Python tuple per row."""
    runs = np.array(
        [
            (
                rack_id,
                summary.hour,
                summary.servers,
                summary.buckets,
                summary.sampling_interval,
                summary.contention.mean,
                summary.contention.min_active,
                summary.contention.p90,
                summary.contention.max,
                summary.contention.frac_zero,
                len(summary.bursts),
                summary.bursty_server_runs(),
                summary.switch_discard_bytes,
                summary.switch_ingress_bytes,
                summary.total_in_bytes,
                bool(summary.extras.get("colocated", False)),
                summary.extras.get("distinct_tasks", 0),
                summary.extras.get("dominant_share", 0.0),
            )
            for summary, rack_id in zip(summaries, rack_ids)
        ],
        dtype=np.float64,
    ).reshape(-1, len(RUN_COLUMNS))
    bursts = np.array(
        [
            (row, index, *_burst_fields(burst))
            for row, summary in enumerate(summaries)
            for index, burst in enumerate(summary.bursts)
        ],
        dtype=np.float64,
    ).reshape(-1, len(BURST_COLUMNS))
    servers = np.array(
        [
            (row, *_server_fields(stat))
            for row, summary in enumerate(summaries)
            for stat in summary.server_stats
        ],
        dtype=np.float64,
    ).reshape(-1, len(SERVER_COLUMNS))
    return {"runs": runs, "bursts": bursts, "servers": servers}


def shard_rack_ids(task: ShardTask) -> list[int]:
    """Each run's rack index, in the shard's run order."""
    return [plan.rack_index for plan, indices in zip(task.plans, task.run_indices) for _ in indices]


def rack_day_task(
    plan: RackRunPlan, config: FleetConfig, synthesizer: RackRunSynthesizer | None
) -> tuple[list[RunSummary], dict]:
    """Pool worker entry point of the rack-day fan-out."""
    worker_metrics = Metrics()
    summaries = synthesize_rack_day(plan, config, synthesizer, metrics=worker_metrics)
    return summaries, worker_metrics.snapshot()


def rack_day_build(
    store: RegionShardStore,
    jobs: int,
    synthesizer: RackRunSynthesizer | None = None,
    pool=None,
) -> list[dict]:
    """Write ``store``'s shards the rack-day way: one rack day per pool
    task, each rack stripe's shards encoded from summary objects once
    the stripe's last day is back.  Returns the shard records in
    manifest order (no manifest is written)."""
    os.makedirs(store.directory, exist_ok=True)
    plans, tasks = plan_region_shards(store.spec, store.config, store.shard_racks, store.shard_hours)
    stripes: dict[int, list[ShardTask]] = {}
    for task in tasks:
        stripes.setdefault(task.key.rack_lo, []).append(task)
    waiting = {
        rack_lo: {plan.rack_index for task in stripe for plan in task.plans}
        for rack_lo, stripe in stripes.items()
    }
    days: dict[int, list[RunSummary]] = {}
    records: dict[str, dict] = {}

    def handle(plan: RackRunPlan, result: tuple[list[RunSummary], dict]) -> None:
        summaries, snapshot = result
        store.metrics.merge(snapshot)
        days[plan.rack_index] = summaries
        rack_lo = plan.rack_index - plan.rack_index % store.shard_racks
        waiting[rack_lo].discard(plan.rack_index)
        if waiting[rack_lo]:
            return
        for task in stripes.pop(rack_lo):
            summaries = [
                days[shard_plan.rack_index][run_index]
                for shard_plan, run_indices in zip(task.plans, task.run_indices)
                for run_index in run_indices
            ]
            tables = encode_tables(summaries, shard_rack_ids(task))
            records[task.key.tag] = _write_shard(store.directory, task, tables, store.metrics)
        for rack_index in range(rack_lo, rack_lo + store.shard_racks):
            days.pop(rack_index, None)

    run_windowed(
        [plan for plan in plans if plan.hours],
        lambda executor, plan: executor.submit(rack_day_task, plan, store.config, synthesizer),
        handle,
        jobs=resolve_jobs(jobs),
        label=lambda plan: f"rack {plan.rack_index} ({plan.workload.rack})",
        pool=pool,
    )
    return [records[task.key.tag] for task in tasks]
