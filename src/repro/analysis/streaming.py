"""Folds of the shard store's columns into Table 1 and the figure views.

Each fold (``*Accumulator``) names the table and columns it reads
(``TABLE``, ``COLUMNS``), takes them as returned by
:meth:`repro.fleet.shards.ShardedRegionDataset.columns` (global order:
rack-major, hours ascending) through ``add_columns``, and folds them
once in ``finalize`` with the float operations, in the order, of the
per-run object loops that ``tests/analysis/streaming_reference.py``
keeps as their oracle, so the result is bit-identical to it.  ``merge``
appends another fold's columns, which must follow this fold's in
global order (a later rack range of the same region).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AnalysisError
from .racks import RackProfile
from .stats import BoxStats

__all__ = [
    "Table1Accumulator",
    "RackProfileAccumulator",
    "HourlyBoxAccumulator",
    "RunContentionAccumulator",
    "RunContentionView",
    "BurstContentionAccumulator",
    "BurstContentionView",
]


class _ColumnFold:
    """One view of a region, folded once from its columns.

    The end-to-end benchmark traces ``add_columns``, ``merge`` and
    ``finalize`` of the five folds by name as its ``analysis.streaming``
    layer (``benchmarks/e2e/workloads.py``): renaming them leaves that
    layer untraced.
    """

    #: The table (see :data:`repro.fleet.shards.TABLES`) and columns read.
    TABLE = "runs"
    COLUMNS: tuple[str, ...] = ()

    def __init__(self, *params) -> None:
        #: What another fold must agree on to merge with this one.
        self._params = params
        self._pieces: list[dict[str, np.ndarray]] = []

    def add_columns(self, columns: dict[str, np.ndarray]) -> None:
        self._pieces.append(columns)

    def merge(self, other: "_ColumnFold") -> "_ColumnFold":
        if type(other) is not type(self) or other._params != self._params:
            raise AnalysisError(f"cannot merge {type(self).__name__}s with different parameters")
        self._pieces.extend(other._pieces)
        return self

    def _columns(self) -> dict[str, np.ndarray]:
        if len(self._pieces) == 1:
            return self._pieces[0]
        return {
            name: np.concatenate([np.empty(0), *(piece[name] for piece in self._pieces)])
            for name in self.COLUMNS
        }


class Table1Accumulator(_ColumnFold):
    """A region's Table 1 row: integer sums and a distinct-rack count."""

    COLUMNS = ("rack_id", "servers", "bursty_server_runs", "n_bursts")

    def __init__(self, region: str) -> None:
        super().__init__(region)
        self.region = region

    def finalize(self):
        from ..fleet.dataset import DatasetSummary

        runs = self._columns()
        total = {name: int(runs[name].astype(np.int64).sum()) for name in self.COLUMNS[1:]}
        return DatasetSummary(
            region=self.region,
            runs=int(runs["rack_id"].size),
            server_runs=total["servers"],
            bursty_server_runs=total["bursty_server_runs"],
            bursts=total["n_bursts"],
            racks=int(np.unique(runs["rack_id"]).size),
        )


class RackProfileAccumulator(_ColumnFold):
    """Per-rack :class:`~repro.analysis.racks.RackProfile` aggregates,
    optionally over the runs of some hours only.  A rack's runs must be
    consecutive; the profiles come in rack-id order."""

    COLUMNS = (
        "rack_id", "hour", "contention_mean", "switch_discard_bytes",
        "switch_ingress_bytes", "distinct_tasks", "dominant_share", "colocated",
    )

    def __init__(self, region: str, rack_names: Sequence[str], hours: set[int] | None = None) -> None:
        self.region = region
        self.rack_names = rack_names
        self.hours = set(hours) if hours is not None else None
        super().__init__(region, self.hours)

    def finalize(self) -> list[RackProfile]:
        runs = self._columns()
        if self.hours is not None:
            keep = np.isin(runs["hour"], sorted(self.hours))
            runs = {name: column[keep] for name, column in runs.items()}
        rack_ids = runs["rack_id"].astype(np.int64)
        if rack_ids.size == 0:
            raise AnalysisError("no runs matched the requested hours")
        bounds = [0, *(np.flatnonzero(np.diff(rack_ids)) + 1).tolist(), rack_ids.size]
        means = runs["contention_mean"]
        profiles = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            profiles.append(
                RackProfile(
                    rack=self.rack_names[rack_ids[start]],
                    region=self.region,
                    mean_contention=float(np.mean(means[start:stop])),
                    min_contention=float(means[start:stop].min()),
                    max_contention=float(means[start:stop].max()),
                    runs=stop - start,
                    # Static per rack: the first run's.
                    distinct_tasks=int(runs["distinct_tasks"][start]),
                    dominant_share=float(runs["dominant_share"][start]),
                    colocated=bool(runs["colocated"][start]),
                    total_discard_bytes=float(sum(runs["switch_discard_bytes"][start:stop].tolist())),
                    total_ingress_bytes=float(sum(runs["switch_ingress_bytes"][start:stop].tolist())),
                )
            )
        return profiles


class HourlyBoxAccumulator(_ColumnFold):
    """Figure 13's per-hour boxes of per-run mean contention, in hour
    order, optionally over some racks only; hours without runs are
    absent."""

    COLUMNS = ("rack_id", "hour", "contention_mean")

    def __init__(self, rack_names: Sequence[str], racks: set[str] | None = None) -> None:
        self.rack_names = rack_names
        self.racks = set(racks) if racks is not None else None
        super().__init__(self.racks)

    def finalize(self) -> dict[int, BoxStats]:
        runs = self._columns()
        hours, means = runs["hour"], runs["contention_mean"]
        if self.racks is not None:
            wanted = [index for index, name in enumerate(self.rack_names) if name in self.racks]
            keep = np.isin(runs["rack_id"], wanted)
            hours, means = hours[keep], means[keep]
        if hours.size == 0:
            raise AnalysisError("no runs matched the rack filter")
        return {
            int(hour): BoxStats.from_values(means[hours == hour])
            for hour in np.unique(hours).tolist()
        }


@dataclass
class RunContentionView:
    """Per-run contention in global run order, split as Figure 15 needs:
    runs with any bursty sample (``mins``/``p90s`` aligned) vs excluded
    zero-p90 runs."""

    total: int
    excluded: int
    mins: np.ndarray
    p90s: np.ndarray


class RunContentionAccumulator(_ColumnFold):
    """Each run's (min-active, p90) contention."""

    COLUMNS = ("contention_min_active", "contention_p90")

    def finalize(self) -> RunContentionView:
        runs = self._columns()
        p90s = runs["contention_p90"]
        active = p90s > 0  # ContentionStats.has_activity
        return RunContentionView(
            total=int(p90s.size),
            excluded=int((~active).sum()),
            mins=runs["contention_min_active"][active],
            p90s=p90s[active],
        )


@dataclass
class BurstContentionView:
    """Per-burst rows in global order: the inputs of Figure 16."""

    racks: np.ndarray  # rack name per burst
    max_contention: np.ndarray  # int-valued
    lossy: np.ndarray  # bool
    first_loss_contention: np.ndarray  # int-valued, -1 when not lossy


class BurstContentionAccumulator(_ColumnFold):
    """Each burst's rack and contention/loss annotation."""

    TABLE = "bursts"
    COLUMNS = ("rack_id", "max_contention", "lossy", "first_loss_contention")

    def __init__(self, rack_names: Sequence[str]) -> None:
        super().__init__()
        self.rack_names = rack_names

    def finalize(self) -> BurstContentionView:
        bursts = self._columns()
        return BurstContentionView(
            racks=np.asarray(self.rack_names, dtype=str)[bursts["rack_id"].astype(np.int64)],
            max_contention=bursts["max_contention"].astype(np.int64),
            lossy=bursts["lossy"] > 0,
            first_loss_contention=bursts["first_loss_contention"].astype(np.int64),
        )
