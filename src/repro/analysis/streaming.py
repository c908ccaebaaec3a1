"""Streaming, mergeable partial summaries for out-of-core aggregation.

The sharded region store (:mod:`repro.fleet.shards`) holds a region-day
as many independent shards; the aggregations feeding Table 1 and
Figures 9/12/13/15/16 must therefore run *shard by shard*, with peak
memory bounded by one shard regardless of rack count.  This module
provides the partials that make that possible:

* **A generic partial** — :class:`QuantileSketch`: an associative
  merge over bounded state, the classic building block of distributed
  quantile aggregation.

* **Exact figure accumulators** — :class:`Table1Accumulator`,
  :class:`RackProfileAccumulator`, :class:`HourlyBoxAccumulator`,
  :class:`RunContentionAccumulator`, :class:`BurstContentionAccumulator`:
  partials whose ``finalize()`` is **bit-identical** to the in-memory
  aggregation over the full summary list.  They carry per-*run* (or
  per-burst) scalars keyed by ``(rack, hour)`` — a few floats per rack
  run, negligible next to the raw 8.16 B-sample footprint — and replay
  the oracle's exact numpy/python reduction order at finalize, so the
  result does not depend on how runs were split into shards or in which
  order shards merged.

Every accumulator supports the same protocol: feed rows from a shard's
columnar arrays (``add_columns``), merge with another accumulator of the
same type, and finalize once at the end.  Merging is associative:
``a.merge(b); a.merge(c)`` equals ``b.merge(c); a.merge(b)`` finalized.
The in-memory oracles they are tested against live in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError
from .racks import RackProfile
from .stats import BoxStats

__all__ = [
    "QuantileSketch",
    "Table1Partial",
    "Table1Accumulator",
    "RackProfileAccumulator",
    "HourlyBoxAccumulator",
    "RunContentionAccumulator",
    "RunContentionView",
    "BurstContentionAccumulator",
    "BurstContentionView",
]


# -- generic mergeable partial ----------------------------------------------


class QuantileSketch:
    """Bounded-memory mergeable quantile sketch (deterministic KLL-style).

    Items live on levels; an item on level ``i`` represents ``2**i``
    original values.  When a level overflows its capacity it is sorted
    and every other item is promoted one level up, alternating the
    starting offset deterministically so merge results do not depend on
    randomness.  Rank error is O(1/k)-ish — good enough for shard-scale
    progress summaries and sweep dashboards; the figure paths that must
    be bit-exact use the exact accumulators below instead.
    """

    def __init__(self, k: int = 256) -> None:
        if k < 8:
            raise AnalysisError("sketch capacity too small to be meaningful")
        self.k = k
        self._levels: list[list[float]] = [[]]
        self._parity: list[bool] = [False]
        self.count = 0

    def add(self, value: float) -> None:
        self._levels[0].append(float(value))
        self.count += 1
        self._compress()

    def add_array(self, values: np.ndarray | list) -> None:
        array = np.asarray(values, dtype=np.float64)
        self._levels[0].extend(array.tolist())
        self.count += int(array.size)
        self._compress()

    def _capacity(self, level: int) -> int:
        # KLL: the top level (heaviest items) gets the full capacity k,
        # decaying geometrically toward level 0 — an error on a heavy
        # item costs 2**level in rank, so heavy levels must be compacted
        # rarely.  Total state stays O(k).
        top = len(self._levels) - 1
        return max(8, int(self.k * (2.0 / 3.0) ** (top - level)))

    def _compress(self) -> None:
        level = 0
        while level < len(self._levels):
            items = self._levels[level]
            if len(items) <= self._capacity(level):
                level += 1
                continue
            items.sort()
            offset = 1 if self._parity[level] else 0
            self._parity[level] = not self._parity[level]
            promoted = items[offset::2]
            self._levels[level] = []
            if level + 1 == len(self._levels):
                self._levels.append([])
                self._parity.append(False)
            self._levels[level + 1].extend(promoted)
            level += 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        if self.k != other.k:
            raise AnalysisError("cannot merge sketches with different capacity")
        while len(self._levels) < len(other._levels):
            self._levels.append([])
            self._parity.append(False)
        for level, items in enumerate(other._levels):
            self._levels[level].extend(items)
        self.count += other.count
        self._compress()
        return self

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]) of everything added."""
        if not 0.0 <= q <= 1.0:
            raise AnalysisError("quantile must be in [0, 1]")
        if self.count == 0:
            raise AnalysisError("empty sketch has no quantiles")
        values: list[float] = []
        weights: list[int] = []
        for level, items in enumerate(self._levels):
            values.extend(items)
            weights.extend([2**level] * len(items))
        order = np.argsort(np.asarray(values, dtype=np.float64), kind="stable")
        sorted_values = np.asarray(values, dtype=np.float64)[order]
        cumulative = np.cumsum(np.asarray(weights, dtype=np.float64)[order])
        target = q * cumulative[-1]
        index = int(np.searchsorted(cumulative, target, side="left"))
        return float(sorted_values[min(index, sorted_values.size - 1)])


# -- keyed row block storage -------------------------------------------------


class _RowBlocks:
    """Blocks of (rack, hour, sub, value-columns) rows, merged by concat.

    ``finalize`` stable-sorts rows by (rack, hour, sub) — the global
    generation order (plans are rack-major, a rack's runs hour-ascending,
    ``sub`` preserving intra-run ordering) — so downstream reductions
    see values in exactly the order the in-memory oracle does, no matter
    how rows were split into shards.
    """

    def __init__(self, value_columns: int) -> None:
        self.value_columns = value_columns
        self._racks: list[np.ndarray] = []
        self._hours: list[np.ndarray] = []
        self._subs: list[np.ndarray] = []
        self._values: list[np.ndarray] = []

    @staticmethod
    def _materialized(array: np.ndarray) -> np.ndarray:
        """A copy detached from file- or buffer-backed storage.

        Blocks outlive the shard frame that fed them: retaining a view
        of a ``np.load(mmap_mode="r")`` array would pin the shard's fd
        open for the accumulator's lifetime (the long-lived-service fd
        leak) and read through a mapping the caller may since have
        closed.  Anything whose ultimate base is not plain owned
        process memory is copied; in-memory arrays pass through
        zero-copy.
        """
        base = array
        while isinstance(base, np.ndarray):
            if isinstance(base, np.memmap):
                return np.array(array)
            if base.base is None:
                return array
            base = base.base
        return np.array(array)

    def add_block(
        self,
        racks: np.ndarray,
        hours: np.ndarray,
        values: np.ndarray,
        subs: np.ndarray | None = None,
    ) -> None:
        racks = np.asarray(racks)
        hours = np.asarray(hours, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[1] != self.value_columns:
            raise AnalysisError("row block has the wrong number of value columns")
        if subs is None:
            subs = np.zeros(racks.shape[0], dtype=np.int64)
        if not (racks.shape[0] == hours.shape[0] == values.shape[0] == subs.shape[0]):
            raise AnalysisError("row block columns must align")
        self._racks.append(self._materialized(racks))
        self._hours.append(self._materialized(hours))
        self._subs.append(self._materialized(np.asarray(subs, dtype=np.int64)))
        self._values.append(self._materialized(values))

    def merge(self, other: "_RowBlocks") -> None:
        if self.value_columns != other.value_columns:
            raise AnalysisError("cannot merge row blocks of different width")
        self._racks.extend(other._racks)
        self._hours.extend(other._hours)
        self._subs.extend(other._subs)
        self._values.extend(other._values)

    def sorted_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(racks, hours, values) stable-sorted by (rack, hour, sub)."""
        if not self._racks:
            empty = np.empty((0, self.value_columns), dtype=np.float64)
            return np.empty(0, dtype="<U1"), np.empty(0, dtype=np.int64), empty
        racks = np.concatenate(self._racks)
        hours = np.concatenate(self._hours)
        subs = np.concatenate(self._subs)
        values = np.concatenate(self._values)
        order = np.lexsort((subs, hours, racks))
        return racks[order], hours[order], values[order]


# -- Table 1 -----------------------------------------------------------------


@dataclass
class Table1Partial:
    """Mergeable piece of one region's Table 1 row (all integer sums)."""

    runs: int = 0
    server_runs: int = 0
    bursty_server_runs: int = 0
    bursts: int = 0
    racks: set = field(default_factory=set)

    def merge(self, other: "Table1Partial") -> "Table1Partial":
        self.runs += other.runs
        self.server_runs += other.server_runs
        self.bursty_server_runs += other.bursty_server_runs
        self.bursts += other.bursts
        self.racks |= other.racks
        return self


class Table1Accumulator:
    """Streaming :meth:`RegionDataset.table1_row` — exact (integer sums
    are order-independent; the rack count is a distinct-set size)."""

    def __init__(self, region: str) -> None:
        self.region = region
        self.partial = Table1Partial()

    def add_columns(
        self,
        racks: np.ndarray,
        servers: np.ndarray,
        bursty_server_runs: np.ndarray,
        n_bursts: np.ndarray,
    ) -> None:
        self.partial.runs += int(np.asarray(servers).shape[0])
        self.partial.server_runs += int(np.asarray(servers, dtype=np.int64).sum())
        self.partial.bursty_server_runs += int(
            np.asarray(bursty_server_runs, dtype=np.int64).sum()
        )
        self.partial.bursts += int(np.asarray(n_bursts, dtype=np.int64).sum())
        self.partial.racks.update(np.unique(np.asarray(racks)).tolist())

    def merge(self, other: "Table1Accumulator") -> "Table1Accumulator":
        if self.region != other.region:
            raise AnalysisError("cannot merge Table 1 partials across regions")
        self.partial.merge(other.partial)
        return self

    def finalize(self):
        from ..fleet.dataset import DatasetSummary

        return DatasetSummary(
            region=self.region,
            runs=self.partial.runs,
            server_runs=self.partial.server_runs,
            bursty_server_runs=self.partial.bursty_server_runs,
            bursts=self.partial.bursts,
            racks=len(self.partial.racks),
        )


# -- rack profiles (Figures 9, 12, 17; the Typical/High split) ---------------


class RackProfileAccumulator:
    """Streaming :func:`repro.analysis.racks.rack_profiles`.

    Carries one row per rack run — ``(rack, hour, contention mean,
    discard bytes, ingress bytes)`` — plus per-rack static extras, and
    replays the oracle's exact reductions at finalize: ``np.mean`` over
    the per-run means in hour order, python ``sum`` for byte totals.
    """

    _VALUE_COLUMNS = 3  # mean contention, discard bytes, ingress bytes

    def __init__(self, hours: set[int] | None = None) -> None:
        self.hours = set(hours) if hours is not None else None
        self._rows = _RowBlocks(self._VALUE_COLUMNS)
        #: rack -> (region, distinct_tasks, dominant_share, colocated);
        #: identical for every run of a rack, so first-write-wins on
        #: merge is safe.
        self._static: dict[str, tuple[str, int, float, bool]] = {}

    def add_columns(
        self,
        region: str,
        racks: np.ndarray,
        hours: np.ndarray,
        contention_mean: np.ndarray,
        discard_bytes: np.ndarray,
        ingress_bytes: np.ndarray,
        distinct_tasks: np.ndarray,
        dominant_share: np.ndarray,
        colocated: np.ndarray,
    ) -> None:
        racks = np.asarray(racks)
        hours = np.asarray(hours, dtype=np.int64)
        keep = (
            np.isin(hours, sorted(self.hours))
            if self.hours is not None
            else np.ones(hours.shape[0], dtype=bool)
        )
        if not keep.any():
            return
        self._rows.add_block(
            racks[keep],
            hours[keep],
            np.column_stack(
                [
                    np.asarray(contention_mean, dtype=np.float64)[keep],
                    np.asarray(discard_bytes, dtype=np.float64)[keep],
                    np.asarray(ingress_bytes, dtype=np.float64)[keep],
                ]
            ),
        )
        tasks = np.asarray(distinct_tasks)[keep]
        shares = np.asarray(dominant_share)[keep]
        coloc = np.asarray(colocated)[keep]
        for index, rack in enumerate(racks[keep]):
            self._static.setdefault(
                str(rack),
                (region, int(tasks[index]), float(shares[index]), bool(coloc[index])),
            )

    def merge(self, other: "RackProfileAccumulator") -> "RackProfileAccumulator":
        if self.hours != other.hours:
            raise AnalysisError("cannot merge profiles with different hour filters")
        self._rows.merge(other._rows)
        for rack, static in other._static.items():
            self._static.setdefault(rack, static)
        return self

    def finalize(self) -> list[RackProfile]:
        racks, _hours, values = self._rows.sorted_rows()
        if racks.size == 0:
            raise AnalysisError("no runs matched the requested hours")
        profiles: list[RackProfile] = []
        boundaries = np.flatnonzero(
            np.concatenate([[True], racks[1:] != racks[:-1]])
        ).tolist() + [racks.size]
        for start, stop in zip(boundaries[:-1], boundaries[1:]):
            rack = str(racks[start])
            means = values[start:stop, 0]
            region, tasks, share, coloc = self._static.get(rack, ("", 0, 0.0, False))
            profiles.append(
                RackProfile(
                    rack=rack,
                    region=region,
                    mean_contention=float(means.mean()),
                    min_contention=float(means.min()),
                    max_contention=float(means.max()),
                    runs=int(stop - start),
                    distinct_tasks=tasks,
                    dominant_share=share,
                    colocated=coloc,
                    total_discard_bytes=float(sum(values[start:stop, 1].tolist())),
                    total_ingress_bytes=float(sum(values[start:stop, 2].tolist())),
                )
            )
        return profiles


# -- hourly boxes (Figure 13) ------------------------------------------------


class HourlyBoxAccumulator:
    """Streaming :func:`repro.analysis.diurnal.hourly_box_stats`."""

    def __init__(self, racks: set[str] | None = None) -> None:
        self.racks = set(racks) if racks is not None else None
        self._rows = _RowBlocks(1)

    def add_columns(
        self, racks: np.ndarray, hours: np.ndarray, contention_mean: np.ndarray
    ) -> None:
        racks = np.asarray(racks)
        hours = np.asarray(hours, dtype=np.int64)
        means = np.asarray(contention_mean, dtype=np.float64)
        if self.racks is not None:
            keep = np.isin(racks, sorted(self.racks))
            racks, hours, means = racks[keep], hours[keep], means[keep]
        if racks.size:
            self._rows.add_block(racks, hours, means)

    def merge(self, other: "HourlyBoxAccumulator") -> "HourlyBoxAccumulator":
        if self.racks != other.racks:
            raise AnalysisError("cannot merge boxes with different rack filters")
        self._rows.merge(other._rows)
        return self

    def finalize(self) -> dict[int, BoxStats]:
        _racks, hours, values = self._rows.sorted_rows()
        if hours.size == 0:
            raise AnalysisError("no runs matched the rack filter")
        result: dict[int, BoxStats] = {}
        for hour in np.unique(hours).tolist():
            result[int(hour)] = BoxStats.from_values(values[hours == hour, 0])
        return result


# -- per-run contention (Figure 15) ------------------------------------------


@dataclass
class RunContentionView:
    """Per-run contention in global run order, split as Figure 15 needs:
    runs with any bursty sample (``mins``/``p90s`` aligned) vs excluded
    zero-p90 runs."""

    total: int
    excluded: int
    mins: np.ndarray
    p90s: np.ndarray


class RunContentionAccumulator:
    """Streaming collection of each run's (min-active, p90) contention."""

    _VALUE_COLUMNS = 2

    def __init__(self) -> None:
        self._rows = _RowBlocks(self._VALUE_COLUMNS)

    def add_columns(
        self, racks: np.ndarray, hours: np.ndarray,
        min_active: np.ndarray, p90: np.ndarray,
    ) -> None:
        self._rows.add_block(
            np.asarray(racks),
            np.asarray(hours, dtype=np.int64),
            np.column_stack(
                [
                    np.asarray(min_active, dtype=np.float64),
                    np.asarray(p90, dtype=np.float64),
                ]
            ),
        )

    def merge(self, other: "RunContentionAccumulator") -> "RunContentionAccumulator":
        self._rows.merge(other._rows)
        return self

    def finalize(self) -> RunContentionView:
        _racks, _hours, values = self._rows.sorted_rows()
        p90s = values[:, 1]
        active = p90s > 0  # ContentionStats.has_activity
        return RunContentionView(
            total=int(values.shape[0]),
            excluded=int((~active).sum()),
            mins=values[active, 0],
            p90s=p90s[active],
        )


# -- per-burst contention/loss (Figure 16) -----------------------------------


@dataclass
class BurstContentionView:
    """Per-burst rows in global order: the inputs of Figure 16."""

    racks: np.ndarray  # rack name per burst
    max_contention: np.ndarray  # int-valued
    lossy: np.ndarray  # bool
    first_loss_contention: np.ndarray  # int-valued, -1 when not lossy


class BurstContentionAccumulator:
    """Streaming collection of each burst's contention/loss annotation."""

    _VALUE_COLUMNS = 3

    def __init__(self) -> None:
        self._rows = _RowBlocks(self._VALUE_COLUMNS)

    def add_columns(
        self,
        racks: np.ndarray,
        hours: np.ndarray,
        subs: np.ndarray,
        max_contention: np.ndarray,
        lossy: np.ndarray,
        first_loss_contention: np.ndarray,
    ) -> None:
        racks = np.asarray(racks)
        if racks.size == 0:
            return
        self._rows.add_block(
            racks,
            np.asarray(hours, dtype=np.int64),
            np.column_stack(
                [
                    np.asarray(max_contention, dtype=np.float64),
                    np.asarray(lossy, dtype=np.float64),
                    np.asarray(first_loss_contention, dtype=np.float64),
                ]
            ),
            subs=np.asarray(subs, dtype=np.int64),
        )

    def merge(self, other: "BurstContentionAccumulator") -> "BurstContentionAccumulator":
        self._rows.merge(other._rows)
        return self

    def finalize(self) -> BurstContentionView:
        racks, _hours, values = self._rows.sorted_rows()
        return BurstContentionView(
            racks=racks,
            max_contention=values[:, 0].astype(np.int64),
            lossy=values[:, 1] > 0,
            first_loss_contention=values[:, 2].astype(np.int64),
        )
