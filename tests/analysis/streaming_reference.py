"""In-memory oracles for the shard store's Figure 15/16 views.

The ``*_from_summaries`` functions compute
:meth:`~repro.fleet.shards.ShardedRegionDataset.run_contention` and
:meth:`~repro.fleet.shards.ShardedRegionDataset.burst_contention`
directly from a summary list in its global order; the tests hold the
store's column views to them.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.streaming import BurstContentionView, RunContentionView


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
