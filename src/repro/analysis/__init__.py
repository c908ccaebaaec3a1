"""The paper's analysis pipeline (Sections 5-8).

Operates on :class:`~repro.core.run.SyncRun` objects regardless of
whether they came from the packet-level simulator or the fleet fluid
model.  The heavy lifting happens once per run in
:func:`~repro.analysis.summary.summarize_run`, which reduces the raw
samples to a :class:`~repro.analysis.summary.RunSummary` — mirroring
how a production pipeline reduces raw samples before fleet-wide
analysis.  The shard store keeps those summaries as run, burst and
server-run tables (:mod:`repro.fleet.shards`), and every fleet-wide
experiment folds the whole-region columns it reads from them.
"""

from .stats import cdf, percentile, box_stats, BoxStats
from .bursts import (
    Burst,
    burst_frequency,
    detect_bursts,
    detect_run_bursts,
)
from .contention import (
    contention_series,
    ContentionStats,
    contention_stats,
    buffer_share,
    buffer_share_drop,
)
from .summary import RunSummary, ServerRunStats, summarize_run
from .racks import RackClass, RackProfile, classify_racks, rack_profiles
from .tasks import task_diversity, dominant_share_by_rack
from .diurnal import hourly_box_stats, hourly_means

__all__ = [
    "cdf",
    "percentile",
    "box_stats",
    "BoxStats",
    "Burst",
    "detect_bursts",
    "detect_run_bursts",
    "burst_frequency",
    "contention_series",
    "ContentionStats",
    "contention_stats",
    "buffer_share",
    "buffer_share_drop",
    "RunSummary",
    "ServerRunStats",
    "summarize_run",
    "RackClass",
    "RackProfile",
    "classify_racks",
    "rack_profiles",
    "task_diversity",
    "dominant_share_by_rack",
    "hourly_box_stats",
    "hourly_means",
]
