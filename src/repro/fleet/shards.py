"""Sharded, out-of-core columnar store for region-day datasets.

The paper's primary dataset is 2 regions x ~1000 racks x 24 h — an
8.16 B-sample footprint that cannot live as one in-memory
:class:`RegionDataset` behind a single pickle blob.  This module
partitions a region-day into per-``(region, rack-range, hour-band)``
**shards**, each drawn from the per-(rack, run) seed streams of
:mod:`repro.fleet.dataset`, so a build synthesizes and writes one shard
(or, in parallel, one rack stripe) at a time.

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

A store is built serially (one shard at a time, in this process, from
one synthesis stream whose fluid batches fill across shard boundaries)
or by fanning rack days out over a process pool, with this process
writing each rack stripe's shards as soon as the stripe is complete.
Because every (rack, run) pair owns an independent seed-stream leaf, shard
contents are **bit-identical** for any job count and equal the
corresponding slice of the in-memory
:func:`~repro.fleet.dataset.generate_region_dataset` — the exactness
oracle the tests hold every shard and aggregation to.
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
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..analysis.bursts import Burst
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
from ..analysis.summary import RunSummary, ServerRunStats
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
    summarize_batches,
)
from .kernels import pool_initializer
from .rackrun import BatchItem, RackRunSynthesizer, run_extras

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

#: One row per rack run.  Table 1 and the figure views read these; rack
#: name, region and extras come from the workload of ``rack_id``.
RUN_COLUMNS: tuple[str, ...] = (
    "rack_id",
    "hour",
    "servers",
    "buckets",
    "sampling_interval",
    "contention_mean",
    "contention_min_active",
    "contention_p90",
    "contention_max",
    "contention_frac_zero",
    "n_bursts",
    "bursty_server_runs",
    "switch_discard_bytes",
    "switch_ingress_bytes",
    "total_in_bytes",
    "colocated",
    "distinct_tasks",
    "dominant_share",
)

#: One row per burst, in its run's burst order: the run's row in the
#: runs table, the burst's index within the run, then the fields of
#: :class:`~repro.analysis.bursts.Burst` in order (``length`` in
#: buckets, ``volume`` in bytes).
BURST_COLUMNS: tuple[str, ...] = (
    "run_row",
    "burst_index",
    "server",
    "start",
    "length",
    "volume",
    "avg_connections",
    "retx_bytes",
    "max_contention",
    "lossy",
    "first_loss_contention",
)

#: One row per server run: the run's row, then the fields of
#: :class:`~repro.analysis.summary.ServerRunStats` in order except
#: ``task``, which the workload supplies.
SERVER_COLUMNS: tuple[str, ...] = (
    "run_row",
    "server",
    "bursty",
    "avg_utilization",
    "utilization_in_bursts",
    "utilization_outside_bursts",
    "bursts_per_second",
    "conns_inside",
    "conns_outside",
    "total_in_bytes",
    "in_burst_bytes",
)

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

#: Columns that decode to Python ``int`` and ``bool``; the rest are floats.
_INT_COLUMNS = frozenset(
    {"rack_id", "hour", "servers", "buckets", "run_row", "server", "start",
     "length", "max_contention", "first_loss_contention"}
)
_BOOL_COLUMNS = frozenset({"lossy", "bursty"})


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


# -- columnar encoding -------------------------------------------------------

_burst_fields = attrgetter(*BURST_COLUMNS[2:])
_server_fields = attrgetter(*SERVER_COLUMNS[1:])


def encode_tables(
    summaries: list[RunSummary], rack_ids: list[int]
) -> dict[str, np.ndarray]:
    """One shard's summaries as its tables (see :data:`TABLES`)."""
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


def _values(columns: dict[str, np.ndarray], name: str) -> list:
    """A column as plain Python values: ``int``, ``bool`` or ``float``,
    as the summarizer produces them (``repr`` of a numpy scalar differs)."""
    column = columns[name]
    if name in _INT_COLUMNS:
        return column.astype(np.int64).tolist()
    if name in _BOOL_COLUMNS:
        return (column != 0).tolist()
    return column.tolist()


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
    run = {name: _values(runs, name) for name in RUN_COLUMNS}
    count = len(run["rack_id"])
    # BURST_COLUMNS[2:] and SERVER_COLUMNS[2:] follow the dataclass fields.
    burst_lists = _per_run(
        list(map(Burst, *(_values(bursts, name) for name in BURST_COLUMNS[2:]))),
        bursts["run_row"],
        count,
    )
    server_ids = _values(servers, "server")
    tasks = [
        workloads[run["rack_id"][row]].placement.tasks[server]
        for row, server in zip(_values(servers, "run_row"), server_ids)
    ]
    stat_lists = _per_run(
        list(map(ServerRunStats, server_ids, tasks, *(_values(servers, name) for name in SERVER_COLUMNS[2:]))),
        servers["run_row"],
        count,
    )
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


def _shard_items(tasks: Iterable[ShardTask], config: FleetConfig) -> Iterator[BatchItem]:
    """Every run of ``tasks`` as a batch item on its own seed-stream
    leaf, shard by shard and, within a shard, rack-major and
    hour-ascending."""
    for task in tasks:
        for plan, run_indices in zip(task.plans, task.run_indices):
            for run_index in run_indices:
                yield (
                    plan.workload,
                    plan.hours[run_index],
                    run_rng(task.key.region, config.seed, plan.rack_index, run_index),
                )


def synthesize_shard(
    task: ShardTask, runs: Iterator[tuple[RunSummary, RackWorkload]]
) -> list[RunSummary]:
    """Take one shard's summaries from ``runs`` — a serial build's unit
    of work.

    ``runs`` is one :func:`~repro.fleet.dataset.summarize_batches`
    stream over the items of this shard and the shards after it, in
    shard order (:func:`_shard_items`), so fluid batches fill to
    ``fluid_batch`` across shard boundaries.  The stream is lazy: the
    batch that holds this shard's last run is synthesized here, and its
    later runs wait in the stream for the next shard."""
    return [summary for summary, _workload in islice(runs, task.total_runs)]


def _write_shard(
    directory: str,
    task: ShardTask,
    summaries: list[RunSummary],
    metrics: Metrics,
) -> dict:
    """Write one shard's tables atomically; return its manifest record."""
    rack_ids = [
        plan.rack_index
        for plan, indices in zip(task.plans, task.run_indices)
        for _ in indices
    ]
    tag = task.key.tag
    names = {kind: f"{tag}.{kind}.npy" for kind in TABLES}
    with metrics.span("shards/write"):
        tables = encode_tables(summaries, rack_ids)
        for kind, table in tables.items():
            _atomic_write(
                os.path.join(directory, names[kind]),
                lambda stream, table=table: np.save(stream, table),
            )
    runs = tables["runs"]
    record = {
        "tag": tag,
        "region": task.key.region,
        "rack_lo": task.key.rack_lo,
        "rack_hi": task.key.rack_hi,
        "hour_lo": task.key.hour_lo,
        "hour_hi": task.key.hour_hi,
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

        With ``jobs == 1`` and no ``pool`` this process synthesizes and
        writes the shards one at a time, every shard taking its runs
        from one :func:`~repro.fleet.dataset.summarize_batches` stream
        (:func:`synthesize_shard`), so fluid batches stay full across
        shard boundaries.  Otherwise rack days fan out over a
        process pool (``pool`` injects an external executor — the
        service's persistent pool — instead of creating one per build)
        and this process writes each rack stripe's shards as soon as the
        stripe's last rack day is back; see :meth:`_fan_out`.  Both
        write byte-identical shards.

        ``on_shard`` receives each shard's manifest record as it is
        written (the query service streams these as NDJSON progress
        events).  ``cancel_event`` requests a graceful drain: in-flight
        work finishes, the manifest is *not* written, and
        :class:`~repro.errors.WorkerCancelled` is raised — the store
        stays an incomplete-but-consistent miss thanks to manifest-last
        atomicity.  Fan-out failure semantics come from
        :func:`repro.fleet.parallel.run_windowed`: fail-fast
        ``WorkerTaskError`` naming the rack, crash containment via
        ``WorkerCrashError``.
        """
        from .parallel import resolve_jobs

        jobs = resolve_jobs(jobs)
        os.makedirs(self.directory, exist_ok=True)
        sweep_stale_tmp_files(self.directory, metrics=self.metrics)
        plans, tasks = plan_region_shards(
            self.spec, self.config, self.shard_racks, self.shard_hours
        )
        total = sum(task.total_runs for task in tasks)
        done = 0
        records: dict[str, dict] = {}

        def collect(record: dict) -> None:
            nonlocal done
            records[record["tag"]] = record
            self.metrics.incr("dataset.shards.generated")
            done += record["runs"]
            if progress is not None:
                progress(done, total)
            if on_shard is not None:
                on_shard(record)

        with self.metrics.span(f"shards/build/{self.spec.name}"):
            if jobs > 1 or pool is not None:
                self._fan_out(
                    plans, tasks, collect, jobs, synthesizer, pool, cancel_event
                )
            else:
                # One stream over every shard's runs: fluid batches fill
                # across shard boundaries, and shards are still written
                # one at a time.
                runs = summarize_batches(
                    _shard_items(tasks, self.config), self.config, synthesizer, self.metrics
                )
                for index, task in enumerate(tasks):
                    if cancel_event is not None and cancel_event.is_set():
                        raise WorkerCancelled(index, len(tasks))
                    with self.metrics.span("shards/generate"):
                        summaries = synthesize_shard(task, runs)
                        record = _write_shard(self.directory, task, summaries, self.metrics)
                    collect(record)
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
            "shards": [records[task.key.tag] for task in tasks],
        }
        _atomic_write(
            self.manifest_path,
            lambda s: s.write(json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")),
        )
        self.metrics.incr("dataset.shards.stored", len(tasks))
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

    def _fan_out(
        self,
        plans: list[RackRunPlan],
        tasks: list[ShardTask],
        collect: Callable[[dict], None],
        jobs: int,
        synthesizer: RackRunSynthesizer | None,
        pool: Executor | None,
        cancel_event: threading.Event | None,
    ) -> None:
        """Synthesize rack days on a process pool and write each rack
        stripe's shards here once all of the stripe's rack days are in.

        Rack days are submitted in rack order with a window of
        ``2 * jobs``, so this process holds about one stripe of rack
        days plus the in-flight window.
        """
        from .parallel import _rack_day_task, run_windowed

        stripes: dict[int, list[ShardTask]] = {}
        for task in tasks:
            stripes.setdefault(task.key.rack_lo, []).append(task)
        waiting = {
            rack_lo: {plan.rack_index for task in stripe for plan in task.plans}
            for rack_lo, stripe in stripes.items()
        }
        days: dict[int, list[RunSummary]] = {}

        def handle(plan: RackRunPlan, result: tuple[list[RunSummary], dict]) -> None:
            summaries, snapshot = result
            self.metrics.merge(snapshot)
            self.metrics.incr("dataset.parallel.rack_days")
            days[plan.rack_index] = summaries
            rack_lo = plan.rack_index - plan.rack_index % self.shard_racks
            waiting[rack_lo].discard(plan.rack_index)
            if waiting[rack_lo]:
                return
            for task in stripes.pop(rack_lo):
                summaries = [
                    days[shard_plan.rack_index][run_index]
                    for shard_plan, run_indices in zip(task.plans, task.run_indices)
                    for run_index in run_indices
                ]
                collect(_write_shard(self.directory, task, summaries, self.metrics))
            for rack_index in range(rack_lo, rack_lo + self.shard_racks):
                days.pop(rack_index, None)

        run_windowed(
            [plan for plan in plans if plan.hours],
            lambda executor, plan: executor.submit(
                _rack_day_task, plan, self.config, synthesizer
            ),
            handle,
            jobs=jobs,
            label=lambda plan: f"rack {plan.rack_index} ({plan.workload.rack})",
            pool=pool,
            cancel_event=cancel_event,
            initializer=pool_initializer,
            initargs=(self.config.kernel,),
        )

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
    "DEFAULT_SHARD_HOURS",
    "DEFAULT_SHARD_RACKS",
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
    "encode_tables",
    "generate_region_shards",
    "plan_region_shards",
    "private_store_root",
    "synthesize_shard",
]
