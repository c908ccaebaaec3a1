"""In-memory oracles for the shard store's views: the per-run loops over
:class:`~tests.analysis.summary_reference.RunSummary` objects that the
column folds of ``repro.analysis.streaming`` replaced.

:func:`rack_profiles` and :func:`hourly_box_stats` compute
:meth:`~repro.fleet.shards.ShardedRegionDataset.rack_profiles` and
:meth:`~repro.fleet.shards.ShardedRegionDataset.hourly_boxes`; the
``*_from_summaries`` functions compute
:meth:`~repro.fleet.shards.ShardedRegionDataset.run_contention` and
:meth:`~repro.fleet.shards.ShardedRegionDataset.burst_contention`,
each from a summary list in its global order.  The tests hold the
store's views to them.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.analysis.racks import RackProfile
from repro.analysis.stats import BoxStats
from repro.analysis.streaming import BurstContentionView, RunContentionView
from repro.errors import AnalysisError


def rack_profiles(summaries, hours: set[int] | None = None) -> list[RackProfile]:
    """Aggregate run summaries per rack, in rack-name order, optionally
    restricted to hours (e.g. the busy hour for Figure 9)."""
    grouped = defaultdict(list)
    for summary in summaries:
        if hours is not None and summary.hour not in hours:
            continue
        grouped[summary.rack].append(summary)
    if not grouped:
        raise AnalysisError("no runs matched the requested hours")

    profiles: list[RackProfile] = []
    for rack, runs in sorted(grouped.items()):
        means = np.array([run.contention.mean for run in runs])
        first = runs[0]
        profiles.append(
            RackProfile(
                rack=rack,
                region=first.region,
                mean_contention=float(means.mean()),
                min_contention=float(means.min()),
                max_contention=float(means.max()),
                runs=len(runs),
                distinct_tasks=int(first.extras.get("distinct_tasks", 0)),
                dominant_share=float(first.extras.get("dominant_share", 0.0)),
                colocated=bool(first.extras.get("colocated", False)),
                total_discard_bytes=float(
                    sum(run.switch_discard_bytes for run in runs)
                ),
                total_ingress_bytes=float(
                    sum(run.switch_ingress_bytes for run in runs)
                ),
            )
        )
    return profiles


def hourly_box_stats(summaries, racks: set[str] | None = None) -> dict[int, BoxStats]:
    """Box statistics of per-run average contention, per hour.

    ``racks`` restricts to a rack group (e.g. RegA-High for Figure 13
    top); hours with no runs are absent from the result.
    """
    grouped: dict[int, list[float]] = defaultdict(list)
    for summary in summaries:
        if racks is not None and summary.rack not in racks:
            continue
        grouped[summary.hour].append(summary.contention.mean)
    if not grouped:
        raise AnalysisError("no runs matched the rack filter")
    return {hour: BoxStats.from_values(values) for hour, values in sorted(grouped.items())}


def run_contention_from_summaries(summaries) -> RunContentionView:
    """The in-memory oracle for ``run_contention``: identical arrays,
    computed directly from the summary list in its native (global)
    order."""
    active = [s for s in summaries if s.contention.has_activity]
    return RunContentionView(
        total=len(summaries),
        excluded=len(summaries) - len(active),
        mins=np.array([s.contention.min_active for s in active], dtype=np.float64),
        p90s=np.array([s.contention.p90 for s in active], dtype=np.float64),
    )


def burst_contention_from_summaries(summaries) -> BurstContentionView:
    """The in-memory oracle for ``burst_contention``."""
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
