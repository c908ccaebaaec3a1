"""Day-scale dataset generation (Section 5, Table 1).

The paper's primary dataset: SyncMillisampler runs on ~1000 racks per
region, roughly hourly across one weekday — 22.4K rack runs and ~2M
server runs per region.  This module generates the synthetic
equivalent at configurable scale, reducing every rack run to its rows
of the shard store's tables (:func:`summarize_batch`) on the fly so
memory stays bounded regardless of scale.

Seeding
-------
Randomness is organized as a tree of independent streams derived from
``(config.seed, crc32(region))`` with :class:`numpy.random.SeedSequence`
spawn keys, instead of threading one sequential generator through the
whole region:

* one stream for task placement across the region's racks;
* one stream per rack for its run-hour schedule;
* one stream per (rack, run) for the synthesis of that rack run.

Because each (rack, run) stream is derived purely from indices, any
rack run can be synthesized in isolation — which is what makes
generation embarrassingly parallel (see :mod:`repro.fleet.parallel`)
and storable shard by shard (see :mod:`repro.fleet.shards`).  For a
fixed seed a region's rows are identical however its runs are cut into
fluid batches, and whether the batches run in this process or on a
process pool of any size.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..analysis.summary import RunRows, run_rows
from ..config import FleetConfig
from ..core.run import StackedRun
from ..obs.metrics import Metrics
from ..workload.region import RackWorkload, RegionSpec, build_region_workloads
from .rackrun import BatchItem, RackRunSynthesizer

#: Stream-tree branch tags (the first element of every spawn key).
_PLACEMENT_STREAM = 0
_HOURS_STREAM = 1
_RUN_STREAM = 2


@dataclass
class DatasetSummary:
    """Table 1's row for one region."""

    region: str
    runs: int
    server_runs: int
    bursty_server_runs: int
    bursts: int
    racks: int

    @property
    def bursty_run_fraction(self) -> float:
        if self.server_runs == 0:
            return 0.0
        return self.bursty_server_runs / self.server_runs


# -- seed-stream tree --------------------------------------------------------


def _region_entropy(region: str, seed: int) -> tuple[int, int]:
    """Root entropy for one region's stream tree.

    Deterministic per-region salt: Python's hash() is salted per process
    and would make "the same dataset" differ across runs, so the region
    name is mixed in via crc32.  :class:`~repro.config.FleetConfig`
    keeps the seed in ``[0, 2**63)``, the non-negative entropy word
    SeedSequence takes, so two seeds never share a stream tree.
    """
    return (seed, zlib.crc32(region.encode("utf-8")))


def _stream(region: str, seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    sequence = np.random.SeedSequence(_region_entropy(region, seed), spawn_key=spawn_key)
    return np.random.default_rng(sequence)


def placement_rng(region: str, seed: int) -> np.random.Generator:
    """The stream that places tasks on every rack of a region."""
    return _stream(region, seed, (_PLACEMENT_STREAM,))


def rack_hours_rng(region: str, seed: int, rack_index: int) -> np.random.Generator:
    """The stream that schedules one rack's run hours."""
    return _stream(region, seed, (_HOURS_STREAM, rack_index))


def run_rng(region: str, seed: int, rack_index: int, run_index: int) -> np.random.Generator:
    """The stream that synthesizes one rack run, independent of all others."""
    return _stream(region, seed, (_RUN_STREAM, rack_index, run_index))


def _run_hours(
    runs_per_rack: int, hours: int, rng: np.random.Generator
) -> np.ndarray:
    """Hours at which one rack is sampled: spread across the day.

    The control plane schedules each rack roughly hourly but a rack
    lands in the sampled subset ~10 times a day (Section 7.2: "Each
    rack is typically associated with 10 runs spread throughout the
    day").  ``FleetConfig`` guarantees ``runs_per_rack <= hours``.
    """
    chosen = rng.choice(hours, size=runs_per_rack, replace=False)
    return np.sort(chosen)


# -- generation plan ---------------------------------------------------------


@dataclass(frozen=True)
class RackRunPlan:
    """Everything needed to synthesize one rack's day in isolation."""

    rack_index: int
    workload: RackWorkload
    hours: tuple[int, ...]


def plan_region(spec: RegionSpec, config: FleetConfig) -> list[RackRunPlan]:
    """Deterministically place workloads and schedule every rack's runs.

    The plan is cheap (no fluid-model time); the expensive synthesis of
    each plan entry is independent of every other entry.
    """
    rng = placement_rng(spec.name, config.seed)
    workloads = build_region_workloads(spec, config.racks_per_region, rng)
    plans: list[RackRunPlan] = []
    for rack_index, workload in enumerate(workloads):
        hours = _run_hours(
            config.runs_per_rack,
            config.hours,
            rack_hours_rng(spec.name, config.seed, rack_index),
        )
        plans.append(
            RackRunPlan(
                rack_index=rack_index,
                workload=workload,
                hours=tuple(int(hour) for hour in hours),
            )
        )
    return plans


def summarize_run(run: StackedRun) -> RunRows:
    """The store path's per-run reduction: ``run``'s rows
    (:func:`~repro.analysis.summary.run_rows`).  :func:`summarize_batch`
    looks it up here on every call, under the name ``benchmarks/e2e``
    traces as its summarize layer."""
    return run_rows(run)


def summarize_batch(
    items: Sequence[BatchItem],
    synthesizer: RackRunSynthesizer,
    metrics: Metrics,
) -> list[RunRows]:
    """Synthesize ``items`` as one fluid batch and reduce every run to its
    rows as soon as it is built, so peak memory is the batch's fluid
    outputs plus one run's stacked series.  Each run reaches
    :func:`summarize_run` as the :class:`~repro.core.run.StackedRun` that
    :meth:`RackRunSynthesizer.synthesize_batch` builds straight from its
    fluid batch: no :class:`~repro.core.run.SyncRun` is assembled and no
    egress echo is drawn.  The rows come back in item order."""

    def summarize(run: StackedRun) -> RunRows:
        with metrics.span("synthesis/summarize"):
            return summarize_run(run)

    return synthesizer.synthesize_batch(items, metrics=metrics, reduce=summarize)
