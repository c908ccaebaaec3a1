"""Sharded, out-of-core columnar store for region-day datasets.

The paper's primary dataset is 2 regions x ~1000 racks x 24 h — an
8.16 B-sample footprint that cannot live as one in-memory
:class:`RegionDataset` behind a single pickle blob.  This module
partitions a region-day into per-``(region, rack-range, hour-band)``
**shards**, each drawn from the per-(rack, run) seed streams of
:mod:`repro.fleet.dataset`, and writes each shard as soon as its runs
are reduced.

On disk a store is one directory per (region, dataset key, shard
geometry)::

    <store-dir>/RegA-<dataset_key>-r64h12/
        manifest.json                   # shard index: keys, hashes, counts
        workloads.pkl                   # every planned RackWorkload, rack order
        r0000-0064-h00-12.runs.npy      # one row per rack run
        r0000-0064-h00-12.bursts.npy    # one row per burst
        r0000-0064-h00-12.servers.npy   # one row per server run

* the ``*.npy`` tables (columns named in :data:`TABLES`) hold, with
  the workloads, every :class:`RunSummary` field.  There is one read
  path: :meth:`ShardedRegionDataset.columns` memory-maps the shards one
  at a time (:meth:`ShardedRegionDataset.iter_frames`) and returns
  whole-region columns in global order.  Table 1 and the figure views
  fold them with the folds of :mod:`repro.analysis.streaming`, and the
  column experiments fold them directly.  Exact views keep every value
  they fold, so read memory grows with the columns asked for, not with
  one shard;
* every file is written to a ``*.tmp`` sibling and atomically renamed;
  the manifest is written last, so a crashed writer can never leave a
  store that *looks* complete.  Stale temp files are swept on build,
  and files the new manifest does not list are deleted after it.

A build cuts the region's one run stream (every shard's runs, shard by
shard) into :class:`BuildTask` slices of consecutive runs, each one
fluid batch that reduces its runs straight to table rows
(:func:`task_tables`).  The tasks run in this process or on a process
pool, and this process writes each shard, in manifest order, as soon as
the tasks covering its runs are back (:func:`synthesize_shard`).
Because every (rack, run) pair owns an independent seed-stream leaf, shard
contents are **bit-identical** for any job count and any cut of the
stream, and equal the rows of the object-form summaries the tests keep
as their exactness oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import pickle
import shutil
import tempfile
import threading
import weakref
from concurrent.futures import Executor
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from ..analysis.bursts import BURST_FIELDS, bursts_from_rows, typed_values
from ..analysis.contention import ContentionStats
from ..analysis.racks import RackProfile
from ..analysis.stats import BoxStats
from ..analysis.streaming import (
    BurstContentionAccumulator,
    BurstContentionView,
    HourlyBoxAccumulator,
    RackProfileAccumulator,
    RunContentionAccumulator,
    RunContentionView,
    Table1Accumulator,
)
from ..analysis.summary import (
    RUN_FIELDS,
    SERVER_FIELDS,
    RunRows,
    RunSummary,
    server_stats_from_rows,
)
from ..config import FleetConfig
from ..errors import ConfigError, WorkerCancelled
from ..obs.metrics import Metrics
from ..workload.region import RackWorkload, RegionSpec
from .cache import dataset_cache_key, sweep_stale_tmp_files
from .dataset import (
    DatasetSummary,
    RackRunPlan,
    RegionDataset,
    plan_region,
    run_rng,
    summarize_batch,
)
from .rackrun import RackRunSynthesizer, run_extras

logger = logging.getLogger(__name__)

#: Bump whenever the shard layout or the summary reduction changes in a
#: way that invalidates existing stores.
SHARD_FORMAT_VERSION = 2

#: Schema tag distinguishing a shard-store manifest from any other JSON.
STORE_SCHEMA = "millisampler-repro/shard-store"

#: Environment override for the default store location.
STORE_DIR_ENV = "MILLISAMPLER_STORE_DIR"

#: Default shard geometry: racks per shard x hours per shard.  64 x 12
#: keeps a paper-scale (1000-rack) region at ~32 shards of a few
#: thousand runs each — large enough to amortize fluid batching, small
#: enough that one shard of summaries is a trivial memory footprint.
DEFAULT_SHARD_RACKS = 64
DEFAULT_SHARD_HOURS = 12

#: One row per rack run: its rack's index in the plan, then the run row
#: of :func:`~repro.analysis.summary.run_rows`.  Rack name, region and
#: extras come from the workload of ``rack_id``.
RUN_COLUMNS: tuple[str, ...] = ("rack_id", *RUN_FIELDS)

#: One row per burst, in its run's burst order: the run's row in the
#: runs table, the burst's index within the run, then the fields of
#: :class:`~repro.analysis.bursts.Burst` in order (``length`` in
#: buckets, ``volume`` in bytes).
BURST_COLUMNS: tuple[str, ...] = ("run_row", "burst_index", *BURST_FIELDS)

#: One row per server run: the run's row, then the fields of
#: :class:`~repro.analysis.summary.ServerRunStats` in order except
#: ``task``, which the workload supplies.
SERVER_COLUMNS: tuple[str, ...] = ("run_row", *SERVER_FIELDS)

#: A shard's tables by file kind, each a plain 2-D float64 matrix.
TABLES: dict[str, tuple[str, ...]] = {
    "runs": RUN_COLUMNS,
    "bursts": BURST_COLUMNS,
    "servers": SERVER_COLUMNS,
}
_COLUMN: dict[str, dict[str, int]] = {
    kind: {name: index for index, name in enumerate(columns)}
    for kind, columns in TABLES.items()
}


def default_store_dir() -> str:
    """``$MILLISAMPLER_STORE_DIR`` or ``~/.cache/millisampler-shards``."""
    override = os.environ.get(STORE_DIR_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "millisampler-shards")


def private_store_root(owner: object, parent: str | None = None) -> str:
    """A new, empty store root that no other run opens, inside
    ``parent`` (default: the system temp directory).

    The root is deleted when ``owner`` is garbage-collected or the
    process exits — by the process that created it only, so a forked
    pool worker dropping its copy of ``owner`` leaves the root alone.
    """
    if parent is not None:
        os.makedirs(parent, exist_ok=True)
    root = tempfile.mkdtemp(prefix="private-store-", dir=parent)
    weakref.finalize(owner, _remove_private_root, root, os.getpid())
    return root


def _remove_private_root(root: str, creator_pid: int) -> None:
    if os.getpid() == creator_pid:
        shutil.rmtree(root, ignore_errors=True)


# -- shard geometry ----------------------------------------------------------


def check_shard_geometry(shard_racks: int, shard_hours: int) -> None:
    """Raise :class:`ConfigError` unless a shard spans at least one rack
    and one hour."""
    if shard_racks < 1 or shard_hours < 1:
        raise ConfigError(
            "shard geometry must be at least 1 rack x 1 hour, "
            f"got {shard_racks} x {shard_hours}"
        )


@dataclass(frozen=True)
class ShardKey:
    """Identity of one shard: a rack range x hour band of one region."""

    region: str
    rack_lo: int
    rack_hi: int  # exclusive
    hour_lo: int
    hour_hi: int  # exclusive

    @property
    def tag(self) -> str:
        return (
            f"r{self.rack_lo:04d}-{self.rack_hi:04d}"
            f"-h{self.hour_lo:02d}-{self.hour_hi:02d}"
        )


@dataclass(frozen=True)
class ShardTask:
    """One shard's generation work: the plans whose rack index falls in
    the range, each with the run indices whose hour falls in the band.

    ``run_indices`` index into the rack's *full* day schedule, so every
    run keeps its original ``(rack_index, run_index)`` seed-stream leaf
    and shard contents are bit-identical to the monolithic generation.
    """

    key: ShardKey
    plans: tuple[RackRunPlan, ...]
    run_indices: tuple[tuple[int, ...], ...]  # aligned with plans

    @property
    def total_runs(self) -> int:
        return sum(len(indices) for indices in self.run_indices)


def plan_region_shards(
    spec: RegionSpec,
    config: FleetConfig,
    shard_racks: int = DEFAULT_SHARD_RACKS,
    shard_hours: int = DEFAULT_SHARD_HOURS,
) -> tuple[list[RackRunPlan], list[ShardTask]]:
    """Partition a region plan into shard tasks.

    Returns the full plan list (rack order — the workloads contract)
    and the shard tasks ordered by (rack range, hour band).  Every
    (rack, run) of the plan appears in exactly one shard.
    """
    check_shard_geometry(shard_racks, shard_hours)
    plans = plan_region(spec, config)
    tasks: list[ShardTask] = []
    for rack_lo in range(0, len(plans), shard_racks):
        rack_hi = min(rack_lo + shard_racks, len(plans))
        for hour_lo in range(0, config.hours, shard_hours):
            hour_hi = min(hour_lo + shard_hours, config.hours)
            shard_plans: list[RackRunPlan] = []
            shard_indices: list[tuple[int, ...]] = []
            for plan in plans[rack_lo:rack_hi]:
                indices = tuple(
                    run_index
                    for run_index, hour in enumerate(plan.hours)
                    if hour_lo <= hour < hour_hi
                )
                if indices:
                    shard_plans.append(plan)
                    shard_indices.append(indices)
            if not shard_plans:
                continue
            tasks.append(
                ShardTask(
                    key=ShardKey(spec.name, rack_lo, rack_hi, hour_lo, hour_hi),
                    plans=tuple(shard_plans),
                    run_indices=tuple(shard_indices),
                )
            )
    return plans, tasks


# -- decoding -----------------------------------------------------------------


def _per_run(rows: list, run_row: np.ndarray, runs: int) -> list[list]:
    """Rows sorted by ``run_row``, split into one list per run."""
    bounds = np.searchsorted(run_row, np.arange(runs + 1)).tolist()
    return [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _decode_summaries(
    runs: dict[str, np.ndarray],
    bursts: dict[str, np.ndarray],
    servers: dict[str, np.ndarray],
    workloads: list[RackWorkload],
) -> list[RunSummary]:
    """Whole-region tables in global order (see
    :meth:`ShardedRegionDataset.columns`) back into run summaries."""
    run = {name: typed_values(runs[name], name) for name in RUN_COLUMNS}
    count = len(run["rack_id"])
    burst_lists = _per_run(bursts_from_rows(bursts), bursts["run_row"], count)
    tasks = [
        workloads[run["rack_id"][row]].placement.tasks[server]
        for row, server in zip(
            typed_values(servers["run_row"], "run_row"), typed_values(servers["server"], "server")
        )
    ]
    stat_lists = _per_run(server_stats_from_rows(servers, tasks), servers["run_row"], count)
    contention = map(
        ContentionStats,
        *(run[f"contention_{name}"] for name in ("mean", "min_active", "p90", "max", "frac_zero")),
    )
    racks = [workloads[rack_id] for rack_id in run["rack_id"]]
    # Positional, in RunSummary's field order.
    return list(
        map(
            RunSummary,
            [workload.rack for workload in racks],
            [workload.region for workload in racks],
            run["hour"],
            run["servers"],
            run["buckets"],
            run["sampling_interval"],
            contention,
            burst_lists,
            stat_lists,
            run["switch_discard_bytes"],
            run["switch_ingress_bytes"],
            [run_extras(workload) for workload in racks],
        )
    )


# -- atomic file plumbing ----------------------------------------------------


def _atomic_write(path: str, write: Callable) -> None:
    """Write via a same-directory temp file + atomic rename."""
    directory = os.path.dirname(path)
    handle, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            write(stream)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- shard generation --------------------------------------------------------


@dataclass(frozen=True)
class BuildTask:
    """One unit of build work: consecutive runs of the region's run
    stream (every shard's runs, shard by shard and, within a shard,
    rack-major and hour-ascending), synthesized as one fluid batch.

    ``runs`` holds each run's plan and its index in the rack's full day
    schedule, so every run keeps its ``(rack_index, run_index)``
    seed-stream leaf.
    """

    start: int  # the first run's position in the stream
    runs: tuple[tuple[RackRunPlan, int], ...]

    @property
    def label(self) -> str:
        racks = dict.fromkeys((plan.rack_index, plan.workload.rack) for plan, _ in self.runs)
        names = ", ".join(f"rack {index} ({name})" for index, name in racks)
        return f"runs {self.start}-{self.start + len(self.runs) - 1}: {names}"


#: Rack runs per batched fluid-model pass, and so per build task (see
#: :meth:`repro.fleet.buffermodel.FluidBufferModel.run_batch`).  Any
#: batch size produces bit-identical data, so it never feeds the
#: dataset key: larger batches amortize the per-bucket time loop over
#: more runs at the cost of holding that many runs' demand and fluid
#: outputs in memory at once (~5.5 MB per run of traced allocations at
#: 92 servers x ~1,850 buckets on the store path).  16 is the measured
#: knee: roughly 2x end-to-end region generation vs one-run batches,
#: with diminishing returns (and growing footprint) beyond it.
FLUID_BATCH = 16


def plan_build_tasks(shards: Sequence[ShardTask], jobs: int) -> list[BuildTask]:
    """Cut the run stream of ``shards`` into tasks of
    ``min(FLUID_BATCH, ceil(runs / jobs))`` consecutive runs: full fluid
    batches, made smaller only to keep every one of ``jobs`` workers
    busy.  Any cut writes the same shards."""
    stream = [
        (plan, run_index)
        for shard in shards
        for plan, run_indices in zip(shard.plans, shard.run_indices)
        for run_index in run_indices
    ]
    size = max(1, min(FLUID_BATCH, math.ceil(len(stream) / jobs)))
    return [
        BuildTask(start, tuple(stream[start : start + size]))
        for start in range(0, len(stream), size)
    ]


def task_tables(
    task: BuildTask,
    config: FleetConfig,
    synthesizer: RackRunSynthesizer | None = None,
    metrics: Metrics | None = None,
) -> dict[str, np.ndarray]:
    """Synthesize one task's runs as one fluid batch and reduce them to
    rows of the three tables (see :data:`TABLES`), ``run_row`` counted
    from the task's first run.  A build runs this in this process or in
    a pool worker."""
    synthesizer = synthesizer or RackRunSynthesizer(policy=config.policy)
    items = [
        (
            plan.workload,
            plan.hours[run_index],
            run_rng(plan.workload.region, config.seed, plan.rack_index, run_index),
        )
        for plan, run_index in task.runs
    ]
    rows = summarize_batch(items, synthesizer, metrics if metrics is not None else Metrics())
    return stack_rows(rows, [plan.rack_index for plan, _ in task.runs])


def stack_rows(rows: Sequence[RunRows], rack_ids: Sequence[int]) -> dict[str, np.ndarray]:
    """Consecutive runs' rows (each run's rack index alongside) as the
    three tables, ``run_row`` counting from the first run."""
    runs = np.empty((len(rows), len(RUN_COLUMNS)))
    runs[:, 0] = rack_ids
    runs[:, 1:] = [row.run for row in rows]
    tables = {"runs": runs}
    for kind, lead in (("bursts", 2), ("servers", 1)):
        blocks = [getattr(row, kind) for row in rows]
        counts = np.array([len(block) for block in blocks], dtype=np.int64)
        table = np.empty((counts.sum(), len(TABLES[kind])))
        table[:, 0] = np.repeat(np.arange(len(rows)), counts)
        if lead == 2:  # burst_index: the row's position within its run
            table[:, 1] = np.arange(len(table)) - np.repeat(np.cumsum(counts) - counts, counts)
        table[:, lead:] = np.concatenate(blocks)
        tables[kind] = table
    return tables


def synthesize_shard(
    shard: ShardTask, start: int, parts: Sequence[tuple[int, dict[str, np.ndarray]]]
) -> dict[str, np.ndarray]:
    """One shard's tables, cut from the tables of the build tasks that
    cover its runs.

    ``start`` is the shard's first run's position in the run stream, and
    ``parts`` are ``(task start, task tables)`` pairs in stream order
    (see :func:`task_tables`); ``run_row`` is re-based onto the shard.
    """
    stop = start + shard.total_runs
    pieces: dict[str, list[np.ndarray]] = {kind: [] for kind in TABLES}
    for task_start, tables in parts:
        lo = max(start, task_start) - task_start
        hi = min(stop, task_start + len(tables["runs"])) - task_start
        if lo >= hi:
            continue
        pieces["runs"].append(tables["runs"][lo:hi])
        for kind in ("bursts", "servers"):
            table = tables[kind]
            first, last = np.searchsorted(table[:, 0], (lo, hi))
            piece = table[first:last].copy()
            piece[:, 0] += task_start - start
            pieces[kind].append(piece)
    return {kind: np.concatenate(blocks) for kind, blocks in pieces.items()}


def _write_shard(
    directory: str,
    shard: ShardTask,
    tables: dict[str, np.ndarray],
    metrics: Metrics,
) -> dict:
    """Write one shard's tables atomically; return its manifest record."""
    tag = shard.key.tag
    names = {kind: f"{tag}.{kind}.npy" for kind in TABLES}
    with metrics.span("shards/write"):
        for kind, table in tables.items():
            _atomic_write(
                os.path.join(directory, names[kind]),
                lambda stream, table=table: np.save(stream, table),
            )
    runs = tables["runs"]
    record = {
        "tag": tag,
        "region": shard.key.region,
        "rack_lo": shard.key.rack_lo,
        "rack_hi": shard.key.rack_hi,
        "hour_lo": shard.key.hour_lo,
        "hour_hi": shard.key.hour_hi,
        "runs": int(runs.shape[0]),
        "bursts": int(tables["bursts"].shape[0]),
        "racks_present": int(np.unique(runs[:, _COLUMN["runs"]["rack_id"]]).size),
        "files": names,
        "bytes": {
            kind: os.path.getsize(os.path.join(directory, name))
            for kind, name in names.items()
        },
        "sha256": {
            kind: _sha256_file(os.path.join(directory, name))
            for kind, name in names.items()
        },
    }
    return record


# -- the store ---------------------------------------------------------------


class ShardStoreError(Exception):
    """An unreadable or inconsistent shard store (treated as a miss)."""


@dataclass
class RegionShardStore:
    """One region-day's shard directory: build, validate, and open.

    The directory name embeds the dataset content key (everything that
    shapes the data) *and* the shard geometry (which shapes only the
    file layout), so differently-sharded stores of the same dataset
    coexist without aliasing.
    """

    root: str
    spec: RegionSpec
    config: FleetConfig
    shard_racks: int = DEFAULT_SHARD_RACKS
    shard_hours: int = DEFAULT_SHARD_HOURS
    metrics: Metrics = field(default_factory=Metrics, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_shard_geometry(self.shard_racks, self.shard_hours)

    @property
    def dataset_key(self) -> str:
        return dataset_cache_key(self.spec, self.config)

    @property
    def directory(self) -> str:
        return os.path.join(
            self.root,
            f"{self.spec.name}-{self.dataset_key[:16]}"
            f"-r{self.shard_racks}h{self.shard_hours}",
        )

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, "manifest.json")

    # -- reading ---------------------------------------------------------

    def load_manifest(self) -> dict | None:
        """The validated manifest, or None when absent/stale/corrupt."""
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as stream:
                manifest = json.load(stream)
        except FileNotFoundError:
            self.metrics.incr("dataset.shards.miss")
            return None
        except (OSError, json.JSONDecodeError) as exc:
            logger.warning("ignoring unreadable shard manifest %s: %s", self.manifest_path, exc)
            self.metrics.incr("dataset.shards.miss")
            return None
        try:
            self._validate(manifest)
        except ShardStoreError as exc:
            logger.warning("ignoring stale shard store %s: %s", self.directory, exc)
            self.metrics.incr("dataset.shards.miss")
            return None
        self.metrics.incr("dataset.shards.hit")
        return manifest

    def _validate(self, manifest: dict) -> None:
        if manifest.get("schema") != STORE_SCHEMA:
            raise ShardStoreError("not a shard-store manifest")
        if manifest.get("format") != SHARD_FORMAT_VERSION:
            raise ShardStoreError(
                f"format {manifest.get('format')} != {SHARD_FORMAT_VERSION}"
            )
        if manifest.get("dataset_key") != self.dataset_key:
            raise ShardStoreError("dataset key mismatch")
        if manifest.get("region") != self.spec.name:
            raise ShardStoreError("region mismatch")
        if (
            manifest.get("shard_racks") != self.shard_racks
            or manifest.get("shard_hours") != self.shard_hours
        ):
            raise ShardStoreError("shard geometry mismatch")
        if manifest.get("columns") != {
            kind: list(columns) for kind, columns in TABLES.items()
        }:
            raise ShardStoreError("column layout mismatch")
        for record in manifest.get("shards", []):
            for kind, name in record["files"].items():
                path = os.path.join(self.directory, name)
                if not os.path.exists(path):
                    raise ShardStoreError(f"missing shard file {name}")
                expected = record["bytes"][kind]
                actual = os.path.getsize(path)
                if actual != expected:
                    raise ShardStoreError(
                        f"shard file {name} is {actual} bytes, expected {expected}"
                    )
        workloads = manifest.get("workloads_file")
        if workloads and not os.path.exists(os.path.join(self.directory, workloads)):
            raise ShardStoreError("missing workloads file")

    def verify_hashes(self, manifest: dict) -> bool:
        """Deep content check: every shard file matches its manifest hash."""
        for record in manifest.get("shards", []):
            for kind, name in record["files"].items():
                if _sha256_file(os.path.join(self.directory, name)) != record["sha256"][kind]:
                    return False
        return True

    # -- building --------------------------------------------------------

    def build(
        self,
        jobs: int = 1,
        synthesizer: RackRunSynthesizer | None = None,
        progress: Callable[[int, int], None] | None = None,
        pool: Executor | None = None,
        cancel_event: threading.Event | None = None,
        on_shard: Callable[[dict], None] | None = None,
    ) -> dict:
        """Generate every shard and atomically publish the manifest.
        Returns the manifest.

        The region's run stream is cut into :class:`BuildTask` fluid
        batches (:func:`plan_build_tasks`), each reduced to table rows by
        :func:`task_tables`: in this process when ``jobs == 1`` and no
        ``pool`` is given, otherwise on a process pool (``pool`` injects
        an external executor — the service's persistent pool — instead of
        creating one per build).  This process writes each shard, in
        manifest order, as soon as the tasks covering its runs are back,
        so both ways write byte-identical shards.

        ``on_shard`` receives each shard's manifest record as it is
        written (the query service streams these as NDJSON progress
        events).  ``cancel_event`` requests a graceful drain: in-flight
        work finishes, the manifest is *not* written, and
        :class:`~repro.errors.WorkerCancelled` is raised — the store
        stays an incomplete-but-consistent miss thanks to manifest-last
        atomicity.  Pool failure semantics come from
        :func:`repro.fleet.parallel.run_windowed`: fail-fast
        ``WorkerTaskError`` naming the task's racks, crash containment
        via ``WorkerCrashError``.
        """
        from . import parallel

        jobs = parallel.resolve_jobs(jobs)
        os.makedirs(self.directory, exist_ok=True)
        sweep_stale_tmp_files(self.directory, metrics=self.metrics)
        plans, shards = plan_region_shards(
            self.spec, self.config, self.shard_racks, self.shard_hours
        )
        tasks = plan_build_tasks(shards, jobs)
        starts = np.cumsum([0] + [shard.total_runs for shard in shards]).tolist()
        total = starts[-1]
        records: list[dict] = []
        # Task tables back but not yet written, by task start.
        parts: dict[int, dict[str, np.ndarray]] = {}

        def handle(task: BuildTask, tables: dict[str, np.ndarray]) -> None:
            """Keep a task's tables, then write every shard whose runs are
            all back, in manifest order."""
            parts[task.start] = tables
            while len(records) < len(shards):
                index = len(records)
                lo, hi = starts[index], starts[index + 1]
                covering = sorted(
                    (task_start, part)
                    for task_start, part in parts.items()
                    if task_start < hi and task_start + len(part["runs"]) > lo
                )
                covered = sum(
                    min(hi, task_start + len(part["runs"])) - max(lo, task_start)
                    for task_start, part in covering
                )
                if covered < hi - lo:
                    return
                shard = shards[index]
                record = _write_shard(
                    self.directory, shard, synthesize_shard(shard, lo, covering), self.metrics
                )
                records.append(record)
                for task_start, part in covering:
                    if task_start + len(part["runs"]) <= hi:
                        del parts[task_start]
                self.metrics.incr("dataset.shards.generated")
                if progress is not None:
                    progress(hi, total)
                if on_shard is not None:
                    on_shard(record)

        with self.metrics.span(f"shards/build/{self.spec.name}"):
            if jobs > 1 or pool is not None:

                def handle_result(task: BuildTask, result: tuple[dict, dict]) -> None:
                    tables, snapshot = result
                    self.metrics.merge(snapshot)
                    self.metrics.incr("dataset.parallel.tasks")
                    handle(task, tables)

                parallel.run_windowed(
                    tasks,
                    lambda executor, task: executor.submit(
                        parallel._build_task, task, self.config, synthesizer
                    ),
                    handle_result,
                    jobs=jobs,
                    label=attrgetter("label"),
                    pool=pool,
                    cancel_event=cancel_event,
                )
            else:
                synthesizer = synthesizer or RackRunSynthesizer(policy=self.config.policy)
                for index, task in enumerate(tasks):
                    if cancel_event is not None and cancel_event.is_set():
                        raise WorkerCancelled(index, len(tasks))
                    handle(task, task_tables(task, self.config, synthesizer, self.metrics))
        self.metrics.incr("dataset.generated_runs", total)

        _atomic_write(
            os.path.join(self.directory, "workloads.pkl"),
            lambda s: pickle.dump(
                [plan.workload for plan in plans], s, protocol=pickle.HIGHEST_PROTOCOL
            ),
        )
        manifest = {
            "schema": STORE_SCHEMA,
            "format": SHARD_FORMAT_VERSION,
            "region": self.spec.name,
            "dataset_key": self.dataset_key,
            "shard_racks": self.shard_racks,
            "shard_hours": self.shard_hours,
            "config": {
                "racks_per_region": self.config.racks_per_region,
                "runs_per_rack": self.config.runs_per_rack,
                "hours": self.config.hours,
                "seed": self.config.seed,
                # Human-auditable record of the sharing policy the store
                # was generated under; identity-wise the policy is
                # already inside dataset_key (and the directory name),
                # so stores for different policies can never collide.
                "policy": json.loads(self.config.policy.canonical_json()),
            },
            "rack_names": [plan.workload.rack for plan in plans],
            "workloads_file": "workloads.pkl",
            "columns": {kind: list(columns) for kind, columns in TABLES.items()},
            "total_runs": total,
            "shards": records,
        }
        _atomic_write(
            self.manifest_path,
            lambda s: s.write(json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")),
        )
        self.metrics.incr("dataset.shards.stored", len(shards))
        self._prune(manifest)
        return manifest

    def _prune(self, manifest: dict) -> None:
        """Delete the files ``manifest`` does not list: a format bump
        keeps the directory name, and a rebuild in place must not keep
        the old format's files.  ``*.tmp`` files belong to the sweep."""
        listed = {"manifest.json", manifest["workloads_file"]}
        listed.update(name for record in manifest["shards"] for name in record["files"].values())
        for name in set(os.listdir(self.directory)) - listed:
            if not name.endswith(".tmp"):
                with contextlib.suppress(FileNotFoundError, IsADirectoryError):
                    os.unlink(os.path.join(self.directory, name))
                    self.metrics.incr("dataset.shards.pruned")

    def open(self, **build_options) -> "ShardedRegionDataset":
        """Open the store, building it first on a miss (``build_options``
        are :meth:`build`'s keyword arguments)."""
        manifest = self.load_manifest()
        if manifest is None:
            manifest = self.build(**build_options)
        return ShardedRegionDataset(store=self, manifest=manifest)


# -- the lazy dataset view ---------------------------------------------------


def _close_mmap(array: np.ndarray) -> None:
    """Release the file mapping behind a ``np.load(mmap_mode="r")`` array.

    CPython's ``mmap.mmap`` dups the file descriptor, so every live
    memmap holds one open fd until its mapping is explicitly closed —
    GC alone is too lazy for a long-lived service iterating hundreds of
    shards.  Any view taken from the array becomes invalid after this.
    """
    mapping = getattr(array, "_mmap", None)
    if mapping is not None:
        try:
            mapping.close()
        except BufferError:
            # A live view still aliases the mapping; leave it to GC
            # rather than pulling memory out from under the view.
            pass


@dataclass
class ShardedRegionDataset:
    """Lazy region-day view over a shard store.

    Every read goes through :meth:`columns`, which loads the shards one
    at a time through :meth:`iter_frames`; Table 1 and the figure views
    below feed its whole-region columns to a fold of
    :mod:`repro.analysis.streaming`.
    """

    store: RegionShardStore
    manifest: dict
    _workloads: list[RackWorkload] | None = field(default=None, repr=False)

    @property
    def region(self) -> str:
        return self.manifest["region"]

    @property
    def rack_names(self) -> list[str]:
        return self.manifest["rack_names"]

    @property
    def metrics(self) -> Metrics:
        return self.store.metrics

    # -- shard reads -----------------------------------------------------

    def iter_frames(self, kinds: Sequence[str]) -> Iterator[tuple[np.ndarray, ...]]:
        """Each shard's tables of the given kinds (see :data:`TABLES`),
        memory-mapped, one shard at a time: the only shard loader.

        A shard's mappings (one fd each) are closed when the next shard
        is requested or the iteration ends, so the caller copies what it
        keeps before advancing.
        """
        for record in self.manifest["shards"]:
            with self.metrics.span("shards/load"):
                tables = tuple(
                    np.load(
                        os.path.join(self.store.directory, record["files"][kind]),
                        mmap_mode="r",
                    )
                    for kind in kinds
                )
            self.metrics.incr("dataset.shards.loaded")
            try:
                yield tables
            finally:
                for table in tables:
                    _close_mmap(table)

    def columns(self, table: str, names: Sequence[str]) -> dict[str, np.ndarray]:
        """The named columns of one table (see :data:`TABLES`) for the
        whole region, in global order: rack-major, hours ascending, then
        row order within a run.  A bursts or servers ``run_row`` indexes
        the region's runs in that order, and its ``rack_id`` is the rack
        of the row's run.

        Loads each shard once; the columns are float64 copies.
        """
        rows_are_runs = table == "runs"
        derived = set() if rows_are_runs else {"run_row", "rack_id"}
        stored = [name for name in names if name not in derived]
        picked = [_COLUMN[table][name] for name in stored]
        keys_at = [_COLUMN["runs"]["hour"], _COLUMN["runs"]["rack_id"]]
        run_row_at = _COLUMN[table].get("run_row")
        keys, blocks, owners = [], [], []
        seen = 0
        for tables in self.iter_frames(("runs",) if rows_are_runs else ("runs", table)):
            runs, rows = tables[0], tables[-1]
            keys.append(runs[:, keys_at])
            blocks.append(rows[:, picked])
            if not rows_are_runs:
                owners.append(rows[:, run_row_at].astype(np.int64) + seen)
            seen += runs.shape[0]
        if not keys:
            return {name: np.empty(0) for name in names}
        keys = np.concatenate(keys)
        # The one sort: runs into (rack, hour) order.  Stable, so runs
        # sharing a key keep their shard order.
        order = np.lexsort(keys.T)
        if rows_are_runs:
            rows_at = order
        else:
            # A shard lists each run's rows contiguously and in run order,
            # so each run's rows are one slice of the concatenated blocks:
            # gather the slices in sorted run order, with no sort of rows.
            counts = np.bincount(np.concatenate(owners), minlength=seen)
            first = np.cumsum(counts) - counts
            counts = counts[order]
            shift = first[order] - (np.cumsum(counts) - counts)
            rows_at = np.repeat(shift, counts) + np.arange(counts.sum())
        result = dict(zip(stored, np.ascontiguousarray(np.concatenate(blocks)[rows_at].T)))
        if not rows_are_runs:
            result["run_row"] = np.repeat(np.arange(seen, dtype=np.float64), counts)
            result["rack_id"] = np.repeat(keys[order, 1], counts)
        return {name: result[name] for name in names}

    @property
    def workloads(self) -> list[RackWorkload]:
        if self._workloads is None:
            path = os.path.join(
                self.store.directory, self.manifest["workloads_file"]
            )
            with open(path, "rb") as stream:
                self._workloads = pickle.load(stream)
        return self._workloads

    def to_region_dataset(self) -> RegionDataset:
        """Decode the store into the equivalent in-memory
        :class:`RegionDataset` — the object form the exactness checks
        compare against."""
        tables = [self.columns(kind, columns) for kind, columns in TABLES.items()]
        return RegionDataset(
            region=self.region,
            summaries=_decode_summaries(*tables, self.workloads),
            workloads=self.workloads,
        )

    # -- Table 1 and the figure views ------------------------------------

    def _fold(self, fold):
        """Feed ``fold`` the columns it names and finalize it."""
        fold.add_columns(self.columns(fold.TABLE, fold.COLUMNS))
        return fold.finalize()

    def table1_row(self) -> DatasetSummary:
        return self._fold(Table1Accumulator(self.region))

    def rack_profiles(self, hours: set[int] | None = None) -> list[RackProfile]:
        """Per-rack aggregates (Figures 9-12 and 17, the RegA class
        split), optionally over the runs of some hours only."""
        return self._fold(RackProfileAccumulator(self.region, self.rack_names, hours))

    def hourly_boxes(self, racks: set[str] | None = None) -> dict[int, BoxStats]:
        """Figure 13's per-hour boxes of per-run mean contention,
        optionally over some racks only."""
        return self._fold(HourlyBoxAccumulator(self.rack_names, racks))

    def run_contention(self) -> RunContentionView:
        return self._fold(RunContentionAccumulator())

    def burst_contention(self) -> BurstContentionView:
        return self._fold(BurstContentionAccumulator(self.rack_names))

    def hour_counts(self) -> dict[int, int]:
        """Runs per hour — the busy-hour fallback needs coverage counts."""
        hours, counts = np.unique(
            self.columns("runs", ("hour",))["hour"].astype(np.int64), return_counts=True
        )
        return dict(zip(hours.tolist(), counts.tolist()))


def generate_region_shards(
    spec: RegionSpec,
    config: FleetConfig,
    store_dir: str,
    shard_racks: int = DEFAULT_SHARD_RACKS,
    shard_hours: int = DEFAULT_SHARD_HOURS,
    metrics: Metrics | None = None,
    **build_options,
) -> ShardedRegionDataset:
    """Build-or-open convenience wrapper around :class:`RegionShardStore`
    (``build_options`` are :meth:`RegionShardStore.build`'s keyword
    arguments)."""
    store = RegionShardStore(
        root=store_dir,
        spec=spec,
        config=config,
        shard_racks=shard_racks,
        shard_hours=shard_hours,
        metrics=metrics if metrics is not None else Metrics(),
    )
    return store.open(**build_options)


__all__ = [
    "BURST_COLUMNS",
    "BuildTask",
    "DEFAULT_SHARD_HOURS",
    "DEFAULT_SHARD_RACKS",
    "FLUID_BATCH",
    "RUN_COLUMNS",
    "RegionShardStore",
    "SERVER_COLUMNS",
    "ShardKey",
    "ShardStoreError",
    "ShardTask",
    "ShardedRegionDataset",
    "TABLES",
    "check_shard_geometry",
    "default_store_dir",
    "generate_region_shards",
    "plan_build_tasks",
    "plan_region_shards",
    "private_store_root",
    "synthesize_shard",
    "task_tables",
]
