"""Shared experiment context: datasets generated once, used by every
figure.

The paper's analyses all draw on one day of SyncMillisampler data per
region; the context mirrors that by opening each region-day from a
shard store on first use (building the store on a miss) and keeping it,
so running all experiments costs one dataset pass.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..analysis.racks import (
    DEFAULT_CONTENTION_SPLIT,
    RackClass,
    RackProfile,
    classify_racks,
)
from ..analysis.stats import BoxStats
from ..analysis.streaming import BurstContentionView, RunContentionView
from ..config import FleetConfig
from ..errors import ConfigError
from ..fleet.dataset import DatasetSummary
from ..fleet.parallel import resolve_jobs
from ..fleet.shards import (
    DEFAULT_SHARD_HOURS,
    DEFAULT_SHARD_RACKS,
    ShardedRegionDataset,
    check_shard_geometry,
    generate_region_shards,
    private_store_root,
)
from ..obs.metrics import Metrics
from ..simnet.audit import InvariantAuditor, audited
from ..workload.region import REGION_A, REGION_B, RegionSpec


#: The busy hour both regions share in the paper's Figure 9 (6-7 am).
BUSY_HOUR = 6


@dataclass
class ExperimentContext:
    """Lazily built region-day stores plus derived classifications."""

    fleet: FleetConfig = field(default_factory=FleetConfig)
    busy_hour: int = BUSY_HOUR
    contention_split: float = DEFAULT_CONTENTION_SPLIT
    verbose: bool = False
    #: Root of the sharded out-of-core region store (see
    #: :mod:`repro.fleet.shards`): region-days are generated into it,
    #: reused from it, and read through its whole-region columns.  None
    #: means a private temporary root that nothing else opens: it is
    #: created with the context, recorded here, and deleted when the
    #: context is collected or the process exits.
    store_dir: str | None = None
    #: Shard geometry: racks per shard x hours per shard.
    shard_racks: int = DEFAULT_SHARD_RACKS
    shard_hours: int = DEFAULT_SHARD_HOURS
    #: Telemetry registry shared by dataset generation, the store, and
    #: every experiment run against this context (see repro.obs).
    metrics: Metrics = field(default_factory=Metrics, repr=False, compare=False)
    #: Cores already committed elsewhere in this process — the query
    #: service passes its request-thread count here.  Subtracted when
    #: ``fleet.jobs == 0`` auto-sizes, so a persistent pool plus the
    #: service's request threads never double-subscribe the machine; an
    #: explicit job count is honored as given.
    reserved_cores: int = 0
    #: External persistent executor for dataset fan-out (the query
    #: service's process pool).  None — the default — lets each build
    #: create and own its own pool.
    pool: object | None = field(default=None, repr=False, compare=False)
    #: Cooperative graceful-drain signal (the service's SIGTERM path):
    #: when set, in-flight fan-out work finishes, queued work is never
    #: started, and builds raise :class:`~repro.errors.WorkerCancelled`.
    cancel_event: threading.Event | None = field(
        default=None, repr=False, compare=False
    )
    #: Enable the runtime invariant auditor (see repro.simnet.audit):
    #: every simulator built inside :meth:`audit_scope` is continuously
    #: checked against the conservation laws, and violation/check totals
    #: land on :attr:`metrics` (hence in ``--manifest`` telemetry).
    audit: bool = False
    auditor: InvariantAuditor | None = field(default=None, repr=False, compare=False)
    _datasets: dict[str, ShardedRegionDataset] = field(
        default_factory=dict, repr=False
    )
    #: Serializes lazy dataset construction so concurrent queries (the
    #: service's request threads) never generate the same region twice.
    _dataset_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_shard_geometry(self.shard_racks, self.shard_hours)
        if self.store_dir is None:
            self.store_dir = private_store_root(self)
        if self.audit and self.auditor is None:
            self.auditor = InvariantAuditor(metrics=self.metrics)

    def audit_scope(self) -> AbstractContextManager:
        """Scope in which simulators pick up this context's auditor.

        A no-op when auditing is off; the orchestrator wraps every
        experiment in this scope, so ``--audit`` needs no per-experiment
        plumbing (components capture the active tap at construction).
        """
        if self.auditor is None:
            return nullcontext()
        return audited(self.auditor)

    @classmethod
    def small(cls, racks: int = 24, runs_per_rack: int = 4, seed: int = 3) -> "ExperimentContext":
        """A fast context for tests and benchmarks."""
        return cls(fleet=FleetConfig(racks_per_region=racks, runs_per_rack=runs_per_rack, seed=seed))

    def _spec(self, region: str) -> RegionSpec:
        if region == "RegA":
            return REGION_A
        if region == "RegB":
            return REGION_B
        raise ConfigError(f"unknown region {region!r}")

    def resolved_jobs(self) -> int:
        """``fleet.jobs`` with the auto-size case (0) discounted by
        :attr:`reserved_cores`, so dataset fan-out never double-subscribes
        cores the process already committed to request threads."""
        return resolve_jobs(self.fleet.jobs, reserved=self.reserved_cores)

    def dataset(self, region: str, on_shard=None) -> ShardedRegionDataset:
        """The region-day, opened from the shard store on first use and
        built into it on a miss.

        The result is a lazy :class:`~repro.fleet.shards.ShardedRegionDataset`
        (shard files mapped with ``mmap``, aggregated shard by shard).  ``on_shard`` is
        invoked with each shard's manifest record as it is written — the
        query service streams these to clients as NDJSON progress
        events.  It fires only when this call actually builds the store;
        a memoized dataset returns immediately without replay.
        """
        with self._dataset_lock:
            if region not in self._datasets:
                spec = self._spec(region)
                progress = None
                if self.verbose:
                    printed = [0]  # tenths of the region already reported

                    def progress(done: int, total: int, _region: str = region) -> None:
                        # Progress fires once per shard: print when a
                        # shard crosses a tenth of the region, and at the end.
                        tenth = done * 10 // total
                        if tenth > printed[0] or done == total:
                            printed[0] = tenth
                            print(f"  [{_region}] {done}/{total} rack runs")
                with self.metrics.span(f"dataset/{region}"):
                    self._datasets[region] = generate_region_shards(
                        spec,
                        self.fleet,
                        self.store_dir,
                        shard_racks=self.shard_racks,
                        shard_hours=self.shard_hours,
                        jobs=self.resolved_jobs(),
                        metrics=self.metrics,
                        progress=progress,
                        pool=self.pool,
                        cancel_event=self.cancel_event,
                        on_shard=on_shard,
                    )
        return self._datasets[region]

    # -- derived classifications ------------------------------------------

    def profiles(self, region: str, busy_hour_only: bool = False) -> list[RackProfile]:
        """Per-rack aggregates; ``busy_hour_only`` restricts to a short
        window around the busy hour (each rack is sampled ~10 of 24
        hours, so a single hour would cover less than half the racks —
        the window keeps the rack sample representative)."""
        hours: set[int] | None = None
        if busy_hour_only:
            hours = {self.busy_hour - 1, self.busy_hour, self.busy_hour + 1}
            counts = self.dataset(region).hour_counts()
            if counts and not hours & set(counts):
                # Tiny test datasets may miss the window entirely; fall
                # back to the fullest hour.  A region without runs keeps
                # the window, and the view reports that nothing matched.
                hours = {max(set(counts), key=lambda h: counts[h])}
        return self.dataset(region).rack_profiles(hours=hours)

    # -- store views ------------------------------------------------------
    #
    # Each method folds the store's whole-region columns (see
    # ShardedRegionDataset.columns) with a fold of repro.analysis.streaming;
    # the results are bit-identical to the in-memory oracle (by test).

    def table1_row(self, region: str) -> DatasetSummary:
        """Table 1's row for one region."""
        return self.dataset(region).table1_row()

    def hourly_boxes(self, region: str, racks: set[str] | None = None) -> dict[int, BoxStats]:
        """Figure 13's hourly contention boxes, optionally rack-filtered."""
        return self.dataset(region).hourly_boxes(racks=racks)

    def run_contention(self, region: str) -> RunContentionView:
        """Figure 15's per-run (min-active, p90) contention arrays."""
        return self.dataset(region).run_contention()

    def burst_contention(self, region: str) -> BurstContentionView:
        """Figure 16's per-burst contention/loss annotations."""
        return self.dataset(region).burst_contention()

    def rega_classes(self) -> dict[RackClass, list[RackProfile]]:
        """The RegA-Typical / RegA-High split (whole-day contention)."""
        return classify_racks(self.profiles("RegA"), split=self.contention_split)

    def rega_high_racks(self) -> set[str]:
        return {profile.rack for profile in self.rega_classes()[RackClass.HIGH]}

    def rega_high_mask(self, rack_ids: np.ndarray) -> np.ndarray:
        """Which rows of a RegA ``rack_id`` column belong to RegA-High
        racks (one class split per call)."""
        high = self.rega_high_racks()
        is_high = np.array(
            [name in high for name in self.dataset("RegA").rack_names], dtype=bool
        )
        return is_high[rack_ids.astype(np.int64)]
