"""Per-summary feeders and in-memory oracles for the streaming partials.

The shard store feeds :mod:`repro.analysis.streaming` from columnar
shard arrays only (``add_columns``).  The tests also feed the same
accumulators from in-memory :class:`~repro.analysis.summary.RunSummary`
objects, split arbitrarily, and hold the result to the oracles below:
each ``*Reference`` class is its accumulator plus an ``add_summary``
that adds one run's rows, and the ``*_from_summaries`` functions compute
the Figure 15/16 views directly from a summary list in its global order.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.streaming import (
    BurstContentionAccumulator,
    BurstContentionView,
    HourlyBoxAccumulator,
    RackProfileAccumulator,
    RunContentionAccumulator,
    RunContentionView,
    Table1Accumulator,
)


class Table1Reference(Table1Accumulator):
    def add_summary(self, summary) -> None:
        self.partial.runs += 1
        self.partial.server_runs += summary.servers
        self.partial.bursty_server_runs += summary.bursty_server_runs()
        self.partial.bursts += len(summary.bursts)
        self.partial.racks.add(summary.rack)


class RackProfileReference(RackProfileAccumulator):
    def add_summary(self, summary) -> None:
        if self.hours is not None and summary.hour not in self.hours:
            return
        self._rows.add_block(
            np.asarray([summary.rack]),
            np.asarray([summary.hour], dtype=np.int64),
            np.asarray(
                [[
                    summary.contention.mean,
                    summary.switch_discard_bytes,
                    summary.switch_ingress_bytes,
                ]]
            ),
        )
        self._static.setdefault(
            summary.rack,
            (
                summary.region,
                int(summary.extras.get("distinct_tasks", 0)),
                float(summary.extras.get("dominant_share", 0.0)),
                bool(summary.extras.get("colocated", False)),
            ),
        )


class HourlyBoxReference(HourlyBoxAccumulator):
    def add_summary(self, summary) -> None:
        if self.racks is not None and summary.rack not in self.racks:
            return
        self._rows.add_block(
            np.asarray([summary.rack]),
            np.asarray([summary.hour], dtype=np.int64),
            np.asarray([summary.contention.mean], dtype=np.float64),
        )


class RunContentionReference(RunContentionAccumulator):
    def add_summary(self, summary) -> None:
        self._rows.add_block(
            np.asarray([summary.rack]),
            np.asarray([summary.hour], dtype=np.int64),
            np.asarray(
                [[summary.contention.min_active, summary.contention.p90]],
                dtype=np.float64,
            ),
        )


class BurstContentionReference(BurstContentionAccumulator):
    def add_summary(self, summary) -> None:
        if not summary.bursts:
            return
        count = len(summary.bursts)
        self._rows.add_block(
            np.full(count, summary.rack),
            np.full(count, summary.hour, dtype=np.int64),
            np.asarray(
                [
                    [b.max_contention, float(b.lossy), b.first_loss_contention]
                    for b in summary.bursts
                ],
                dtype=np.float64,
            ),
            subs=np.arange(count, dtype=np.int64),
        )


def run_contention_from_summaries(summaries) -> RunContentionView:
    """The in-memory oracle for :class:`RunContentionAccumulator`:
    identical arrays, computed directly from the summary list in its
    native (global) order."""
    active = [s for s in summaries if s.contention.has_activity]
    return RunContentionView(
        total=len(summaries),
        excluded=len(summaries) - len(active),
        mins=np.array([s.contention.min_active for s in active], dtype=np.float64),
        p90s=np.array([s.contention.p90 for s in active], dtype=np.float64),
    )


def burst_contention_from_summaries(summaries) -> BurstContentionView:
    """The in-memory oracle for :class:`BurstContentionAccumulator`."""
    racks: list[str] = []
    rows: list[tuple[int, bool, int]] = []
    for summary in summaries:
        for burst in summary.bursts:
            racks.append(summary.rack)
            rows.append((burst.max_contention, burst.lossy, burst.first_loss_contention))
    return BurstContentionView(
        racks=np.asarray(racks, dtype=str),
        max_contention=np.asarray([r[0] for r in rows], dtype=np.int64),
        lossy=np.asarray([r[1] for r in rows], dtype=bool),
        first_loss_contention=np.asarray([r[2] for r in rows], dtype=np.int64),
    )
