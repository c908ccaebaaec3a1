"""The paper's analysis pipeline (Sections 5-8).

Operates on :class:`~repro.core.run.SyncRun` objects regardless of
whether they came from the packet-level simulator or the fleet fluid
model.  The heavy lifting happens once per run in
:func:`~repro.analysis.summary.run_rows`, which reduces the raw samples
of a stacked run to float64 rows of three tables — the run, its bursts
and its server runs — mirroring how a production pipeline reduces raw
samples before fleet-wide analysis.  The shard store keeps those rows
(:mod:`repro.fleet.shards`), and every fleet-wide experiment folds the
whole-region columns it reads from them (:mod:`repro.analysis.streaming`).
"""

from .stats import cdf, percentile, box_stats, BoxStats
from .contention import (
    contention_series,
    ContentionStats,
    contention_stats,
    buffer_share,
    buffer_share_drop,
)
from .summary import RunRows, run_rows
from .racks import RackClass, RackProfile, classify_racks
from .tasks import task_diversity, dominant_share_by_rack

__all__ = [
    "cdf",
    "percentile",
    "box_stats",
    "BoxStats",
    "contention_series",
    "ContentionStats",
    "contention_stats",
    "buffer_share",
    "buffer_share_drop",
    "RunRows",
    "run_rows",
    "RackClass",
    "RackProfile",
    "classify_racks",
    "task_diversity",
    "dominant_share_by_rack",
]
