"""Sharded, out-of-core columnar store for region-day datasets.

The paper's primary dataset is 2 regions x ~1000 racks x 24 h — an
8.16 B-sample footprint that cannot live as one in-memory
:class:`RegionDataset` behind a single pickle blob.  This module
partitions a region-day into per-``(region, rack-range, hour-band)``
**shards**, each drawn from the per-(rack, run) seed streams of
:mod:`repro.fleet.dataset`, so storage and analysis pipeline shard by
shard with peak memory bounded by one shard.

On disk a store is one directory per (region, dataset key, shard
geometry)::

    <store-dir>/RegA-<dataset_key>-r64h12/
        manifest.json            # shard index: keys, hashes, counts
        workloads.pkl            # every planned RackWorkload, rack order
        r0000-0064-h00-12.runs.npy    # columnar numeric run summary fields
        r0000-0064-h00-12.bursts.npy  # columnar per-burst annotations
        r0000-0064-h00-12.pkl         # full RunSummary objects (pickled)

* ``*.runs.npy`` / ``*.bursts.npy`` are plain ``.npy`` arrays loaded
  with ``np.load(mmap_mode="r")`` — zero-copy columnar access for the
  streaming aggregations (:mod:`repro.analysis.streaming`).
* ``*.pkl`` holds the full :class:`RunSummary` objects for consumers
  that need burst records or server stats beyond the numeric columns;
  it is only ever loaded one shard at a time.
* every file is written to a ``*.tmp`` sibling and atomically renamed;
  the manifest is written last, so a crashed writer can never leave a
  store that *looks* complete.  Stale temp files are swept on build.

A store is built serially (one shard at a time, in this process) or
by fanning rack days out over a process pool, with this process writing
each rack stripe's shards as soon as the stripe is complete.  Because
every (rack, run) pair owns an independent seed-stream leaf, shard
contents are **bit-identical** for any job count and equal the
corresponding slice of the in-memory
:func:`~repro.fleet.dataset.generate_region_dataset` — the exactness
oracle the tests hold every shard and aggregation to.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import shutil
import sys
import tempfile
import threading
import weakref
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..analysis.streaming import (
    BurstContentionAccumulator,
    BurstContentionView,
    HourlyBoxAccumulator,
    RackProfileAccumulator,
    RunContentionAccumulator,
    RunContentionView,
    Table1Accumulator,
)
from ..analysis.summary import RunSummary
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
from .rackrun import BatchItem, RackRunSynthesizer

logger = logging.getLogger(__name__)

#: Bump whenever the shard layout or the summary reduction changes in a
#: way that invalidates existing stores.
SHARD_FORMAT_VERSION = 1

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

#: Numeric per-run summary columns (one row per rack run).  These are
#: what the streaming aggregations read; the full RunSummary objects
#: stay in the pickle sidecar.
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
RUN_COL: dict[str, int] = {name: index for index, name in enumerate(RUN_COLUMNS)}

#: Numeric per-burst columns (one row per detected burst).
BURST_COLUMNS: tuple[str, ...] = (
    "run_row",
    "burst_index",
    "max_contention",
    "lossy",
    "first_loss_contention",
    "length_buckets",
    "volume_bytes",
)
BURST_COL: dict[str, int] = {name: index for index, name in enumerate(BURST_COLUMNS)}


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


# -- columnar projection -----------------------------------------------------


def summaries_to_columns(
    summaries: list[RunSummary], rack_ids: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Project summaries onto the (runs, bursts) numeric column arrays."""
    runs = np.zeros((len(summaries), len(RUN_COLUMNS)), dtype=np.float64)
    burst_rows: list[list[float]] = []
    for row, (summary, rack_id) in enumerate(zip(summaries, rack_ids)):
        contention = summary.contention
        runs[row] = (
            rack_id,
            summary.hour,
            summary.servers,
            summary.buckets,
            summary.sampling_interval,
            contention.mean,
            contention.min_active,
            contention.p90,
            contention.max,
            contention.frac_zero,
            len(summary.bursts),
            summary.bursty_server_runs(),
            summary.switch_discard_bytes,
            summary.switch_ingress_bytes,
            summary.total_in_bytes,
            float(bool(summary.extras.get("colocated", False))),
            float(summary.extras.get("distinct_tasks", 0)),
            float(summary.extras.get("dominant_share", 0.0)),
        )
        for burst_index, burst in enumerate(summary.bursts):
            burst_rows.append(
                [
                    float(row),
                    float(burst_index),
                    float(burst.max_contention),
                    float(burst.lossy),
                    float(burst.first_loss_contention),
                    float(burst.length),
                    float(burst.volume),
                ]
            )
    bursts = (
        np.asarray(burst_rows, dtype=np.float64)
        if burst_rows
        else np.zeros((0, len(BURST_COLUMNS)), dtype=np.float64)
    )
    return runs, bursts


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


def synthesize_shard(
    task: ShardTask,
    config: FleetConfig,
    synthesizer: RackRunSynthesizer | None = None,
    metrics: Metrics | None = None,
) -> list[RunSummary]:
    """Synthesize one shard's runs (rack-major, hour-ascending order),
    reducing each fluid batch immediately — a serial build's unit of
    work."""
    items: list[BatchItem] = [
        (
            plan.workload,
            plan.hours[run_index],
            run_rng(task.key.region, config.seed, plan.rack_index, run_index),
        )
        for plan, run_indices in zip(task.plans, task.run_indices)
        for run_index in run_indices
    ]
    return [
        summary
        for summary, _workload in summarize_batches(items, config, synthesizer, metrics)
    ]


def _reshare(plan: RackRunPlan, summaries: list[RunSummary]) -> list[RunSummary]:
    """Point a rack day unpickled from a worker at this process's strings.

    Pickle writes an object once per file and refers back to it after
    that, by identity.  Summaries synthesized in this process share one
    region name and the interned ``extras`` keys across every rack of a
    shard, but each rack day from a worker brings its own copies, which
    would make the shard's summaries file longer by a few bytes per
    rack.  Restoring the sharing keeps parallel shards byte-identical to
    serial ones.
    """
    for summary in summaries:
        summary.region = plan.workload.region
        summary.extras = {sys.intern(key): value for key, value in summary.extras.items()}
    return summaries


def _write_shard(
    directory: str,
    task: ShardTask,
    summaries: list[RunSummary],
    metrics: Metrics,
) -> dict:
    """Write one shard's three files atomically; return its manifest record."""
    rack_ids = [
        plan.rack_index
        for plan, indices in zip(task.plans, task.run_indices)
        for _ in indices
    ]
    runs, bursts = summaries_to_columns(summaries, rack_ids)
    tag = task.key.tag
    names = {
        "runs": f"{tag}.runs.npy",
        "bursts": f"{tag}.bursts.npy",
        "summaries": f"{tag}.pkl",
    }
    with metrics.span("shards/write"):
        _atomic_write(
            os.path.join(directory, names["runs"]), lambda s: np.save(s, runs)
        )
        _atomic_write(
            os.path.join(directory, names["bursts"]), lambda s: np.save(s, bursts)
        )
        _atomic_write(
            os.path.join(directory, names["summaries"]),
            lambda s: pickle.dump(summaries, s, protocol=pickle.HIGHEST_PROTOCOL),
        )
    record = {
        "tag": tag,
        "region": task.key.region,
        "rack_lo": task.key.rack_lo,
        "rack_hi": task.key.rack_hi,
        "hour_lo": task.key.hour_lo,
        "hour_hi": task.key.hour_hi,
        "runs": int(runs.shape[0]),
        "bursts": int(bursts.shape[0]),
        "racks_present": int(np.unique(runs[:, RUN_COL["rack_id"]]).size),
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
        if list(manifest.get("run_columns", [])) != list(RUN_COLUMNS) or list(
            manifest.get("burst_columns", [])
        ) != list(BURST_COLUMNS):
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

        With ``jobs == 1`` and no ``pool`` this process synthesizes the
        shards one at a time.  Otherwise rack days fan out over a
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
                synthesizer = synthesizer or RackRunSynthesizer(policy=self.config.policy, kernel=self.config.kernel)
                for index, task in enumerate(tasks):
                    if cancel_event is not None and cancel_event.is_set():
                        raise WorkerCancelled(index, len(tasks))
                    with self.metrics.span("shards/generate"):
                        summaries = synthesize_shard(
                            task, self.config, synthesizer, metrics=self.metrics
                        )
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
            "run_columns": list(RUN_COLUMNS),
            "burst_columns": list(BURST_COLUMNS),
            "total_runs": total,
            "shards": [records[task.key.tag] for task in tasks],
        }
        _atomic_write(
            self.manifest_path,
            lambda s: s.write(json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")),
        )
        self.metrics.incr("dataset.shards.stored", len(tasks))
        return manifest

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
            days[plan.rack_index] = _reshare(plan, summaries)
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
class ShardFrame:
    """One shard's columnar arrays (memmap-backed) plus its record."""

    record: dict
    runs: np.ndarray  # (n_runs, len(RUN_COLUMNS)) float64, mmap
    bursts: np.ndarray  # (n_bursts, len(BURST_COLUMNS)) float64, mmap

    def run_column(self, name: str) -> np.ndarray:
        return self.runs[:, RUN_COL[name]]

    def burst_column(self, name: str) -> np.ndarray:
        return self.bursts[:, BURST_COL[name]]

    def close(self) -> None:
        """Release both file mappings (and their fds) eagerly.

        Consumers that stream shard-by-shard call this as soon as the
        shard's rows are folded into an accumulator, keeping the open-fd
        count O(1) in the number of shards instead of O(shards)-until-GC.
        """
        _close_mmap(self.runs)
        _close_mmap(self.bursts)


@dataclass
class ShardedRegionDataset:
    """Lazy region-day view over a shard store.

    Duck-types the parts of :class:`RegionDataset` the experiment layer
    uses (``region``, ``summaries``, ``workloads``, ``table1_row``) but
    computes aggregations **streamingly**, one shard at a time, through
    the mergeable partials of :mod:`repro.analysis.streaming`.
    Accessing :attr:`summaries` materializes every shard and is the
    compatibility path for analyses not yet converted to streaming.
    """

    store: RegionShardStore
    manifest: dict
    _summaries: list[RunSummary] | None = field(default=None, repr=False)
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

    # -- shard iteration -------------------------------------------------

    def iter_frames(self) -> Iterator[ShardFrame]:
        """Memmap-backed columnar frames, shard by shard.

        Each frame holds two open fds until its :meth:`ShardFrame.close`
        is called; the streaming consumers below close every frame as
        soon as it is folded, and callers iterating directly should do
        the same.
        """
        for record in self.manifest["shards"]:
            with self.metrics.span("shards/load"):
                runs = np.load(
                    os.path.join(self.store.directory, record["files"]["runs"]),
                    mmap_mode="r",
                )
                bursts = np.load(
                    os.path.join(self.store.directory, record["files"]["bursts"]),
                    mmap_mode="r",
                )
            self.metrics.incr("dataset.shards.loaded")
            yield ShardFrame(record=record, runs=runs, bursts=bursts)

    def iter_summaries(self) -> Iterator[RunSummary]:
        """Every run summary in **global order** (rack-major, hour asc),
        holding one shard in memory at a time.

        Shards are stored (rack range major, hour band minor), so a
        rack's runs are split across hour bands; re-interleaving needs
        the shards of one rack range open together — that is one
        rack-range stripe, still far below whole-region footprint.
        """
        stripes: dict[int, list[dict]] = {}
        for record in self.manifest["shards"]:
            stripes.setdefault(record["rack_lo"], []).append(record)
        for rack_lo in sorted(stripes):
            per_rack: dict[int, list[tuple[int, RunSummary]]] = {}
            for record in sorted(stripes[rack_lo], key=lambda r: r["hour_lo"]):
                with self.metrics.span("shards/load"):
                    path = os.path.join(
                        self.store.directory, record["files"]["summaries"]
                    )
                    with open(path, "rb") as stream:
                        summaries = pickle.load(stream)
                runs = np.load(
                    os.path.join(self.store.directory, record["files"]["runs"]),
                    mmap_mode="r",
                )
                self.metrics.incr("dataset.shards.loaded")
                # astype copies, so the mapping (and its fd) can be
                # released before the next shard is opened.
                rack_ids = runs[:, RUN_COL["rack_id"]].astype(np.int64)
                hours = runs[:, RUN_COL["hour"]].astype(np.int64)
                _close_mmap(runs)
                for rack_id, hour, summary in zip(rack_ids, hours, summaries):
                    per_rack.setdefault(int(rack_id), []).append((int(hour), summary))
            for rack_id in sorted(per_rack):
                for _hour, summary in sorted(per_rack[rack_id], key=lambda p: p[0]):
                    yield summary

    # -- RegionDataset compatibility -------------------------------------

    @property
    def summaries(self) -> list[RunSummary]:
        """Materialized full summary list, for analyses that still read
        whole :class:`RunSummary` objects."""
        if self._summaries is None:
            self._summaries = list(self.iter_summaries())
        return self._summaries

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
        """Materialize the equivalent in-memory :class:`RegionDataset`."""
        return RegionDataset(
            region=self.region, summaries=self.summaries, workloads=self.workloads
        )

    # -- streaming aggregations ------------------------------------------

    def _merge_frames(self, make, feed):
        """Run one accumulator per shard and fold them left-to-right —
        the associative-merge shape a distributed reducer would use."""
        merged = None
        for frame in self.iter_frames():
            partial = make()
            try:
                feed(partial, frame)
            finally:
                # Accumulators copy out of memmap-backed blocks (see
                # _RowBlocks._materialized), so the shard's fds can be
                # released the moment its rows are folded.
                frame.close()
            with self.metrics.span("shards/merge"):
                if merged is None:
                    merged = partial
                else:
                    merged.merge(partial)
                self.metrics.incr("dataset.shards.merged")
        if merged is None:
            merged = make()
        return merged

    def table1_row(self) -> DatasetSummary:
        names = np.asarray(self.rack_names)

        def feed(acc: Table1Accumulator, frame: ShardFrame) -> None:
            rack_ids = frame.run_column("rack_id").astype(np.int64)
            acc.add_columns(
                names[rack_ids],
                frame.run_column("servers"),
                frame.run_column("bursty_server_runs"),
                frame.run_column("n_bursts"),
            )

        return self._merge_frames(lambda: Table1Accumulator(self.region), feed).finalize()

    def rack_profiles(self, hours: set[int] | None = None):
        names = np.asarray(self.rack_names)
        region = self.region

        def feed(acc: RackProfileAccumulator, frame: ShardFrame) -> None:
            rack_ids = frame.run_column("rack_id").astype(np.int64)
            acc.add_columns(
                region,
                names[rack_ids],
                frame.run_column("hour").astype(np.int64),
                frame.run_column("contention_mean"),
                frame.run_column("switch_discard_bytes"),
                frame.run_column("switch_ingress_bytes"),
                frame.run_column("distinct_tasks"),
                frame.run_column("dominant_share"),
                frame.run_column("colocated"),
            )

        return self._merge_frames(
            lambda: RackProfileAccumulator(hours=hours), feed
        ).finalize()

    def hourly_boxes(self, racks: set[str] | None = None):
        names = np.asarray(self.rack_names)

        def feed(acc: HourlyBoxAccumulator, frame: ShardFrame) -> None:
            rack_ids = frame.run_column("rack_id").astype(np.int64)
            acc.add_columns(
                names[rack_ids],
                frame.run_column("hour").astype(np.int64),
                frame.run_column("contention_mean"),
            )

        return self._merge_frames(lambda: HourlyBoxAccumulator(racks=racks), feed).finalize()

    def run_contention(self) -> RunContentionView:
        names = np.asarray(self.rack_names)

        def feed(acc: RunContentionAccumulator, frame: ShardFrame) -> None:
            rack_ids = frame.run_column("rack_id").astype(np.int64)
            acc.add_columns(
                names[rack_ids],
                frame.run_column("hour").astype(np.int64),
                frame.run_column("contention_min_active"),
                frame.run_column("contention_p90"),
            )

        return self._merge_frames(lambda: RunContentionAccumulator(), feed).finalize()

    def burst_contention(self) -> BurstContentionView:
        names = np.asarray(self.rack_names)

        def feed(acc: BurstContentionAccumulator, frame: ShardFrame) -> None:
            if frame.bursts.shape[0] == 0:
                return
            run_rows = frame.burst_column("run_row").astype(np.int64)
            rack_ids = frame.runs[run_rows, RUN_COL["rack_id"]].astype(np.int64)
            hours = frame.runs[run_rows, RUN_COL["hour"]].astype(np.int64)
            # Sub-key: preserve intra-run burst order under the stable
            # global (rack, hour, sub) sort.
            acc.add_columns(
                names[rack_ids],
                hours,
                frame.burst_column("burst_index").astype(np.int64),
                frame.burst_column("max_contention"),
                frame.burst_column("lossy"),
                frame.burst_column("first_loss_contention"),
            )

        return self._merge_frames(lambda: BurstContentionAccumulator(), feed).finalize()

    def hour_counts(self) -> dict[int, int]:
        """Runs per hour — the busy-hour fallback needs coverage counts."""
        counts: dict[int, int] = {}
        for frame in self.iter_frames():
            try:
                hours, per_hour = np.unique(
                    frame.run_column("hour").astype(np.int64), return_counts=True
                )
            finally:
                frame.close()
            for hour, count in zip(hours.tolist(), per_hour.tolist()):
                counts[hour] = counts.get(hour, 0) + count
        return counts


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
    "BURST_COL",
    "BURST_COLUMNS",
    "DEFAULT_SHARD_HOURS",
    "DEFAULT_SHARD_RACKS",
    "RUN_COL",
    "RUN_COLUMNS",
    "RegionShardStore",
    "ShardFrame",
    "ShardKey",
    "ShardStoreError",
    "ShardTask",
    "ShardedRegionDataset",
    "check_shard_geometry",
    "default_store_dir",
    "generate_region_shards",
    "plan_region_shards",
    "private_store_root",
    "summaries_to_columns",
    "synthesize_shard",
]
