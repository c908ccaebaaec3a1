"""Per-run reduction: everything the fleet-scale figures need, without
keeping raw sample series in memory.

A full day of the paper's data is 8.16 billion samples; the analyses
all operate on per-run aggregates (burst records, contention
statistics, utilization summaries).  :func:`run_rows` computes those
once per rack run — the :class:`~repro.core.run.StackedRun` the fleet
synthesizer builds straight from its fluid batch, or a stacked
:class:`~repro.core.run.SyncRun` — as float64 rows of the shard
store's three tables, letting the dataset generator discard the raw
series immediately, the same reduce-then-aggregate shape a production
pipeline uses.  Those rows are the one reduced form of a run: a store
writes them, and a caller holding raw runs stacks them into an
in-memory :class:`~repro.fleet.shards.RegionDataset`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .. import units
from ..core.run import StackedRun
from ..errors import AnalysisError
from .bursts import _burst_rows
from .contention import contention_stats


#: A run row's columns (the shard store prepends the run's rack id).
RUN_FIELDS: tuple[str, ...] = (
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

#: A server row's columns, the unit of Figures 6 and 8.  ``bursty`` is
#: 1.0 when the server had a burst; the means inside bursts
#: (``utilization_in_bursts``, ``conns_inside``) are NaN without one,
#: and those outside are NaN when every sample was bursty.  A server's
#: task comes from its rack's placement.
SERVER_FIELDS: tuple[str, ...] = (
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


class RunRows(NamedTuple):
    """One rack run reduced to float64 rows: its run row
    (:data:`RUN_FIELDS`), one row per burst
    (:data:`~repro.analysis.bursts.BURST_FIELDS`) and one per server
    (:data:`SERVER_FIELDS`)."""

    run: np.ndarray
    bursts: np.ndarray
    servers: np.ndarray


def run_rows(
    run: StackedRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> RunRows:
    """Reduce one stacked rack run to its :class:`RunRows`: the one
    reduction core.

    Works on the run's stacked ``(servers, buckets)`` matrices; only its
    ingress, retransmitted-ingress and connection-estimate series are
    read.  One segment pass finds every burst of every server, and the
    per-server aggregates are row reductions.  Only bursty servers need
    the masked means inside and outside their bursts, taken as
    ``.mean()`` of the compacted row.
    """
    if run.buckets == 0:
        raise AnalysisError("cannot summarize an empty run")
    servers = run.servers
    in_bytes, conns = run.in_bytes, run.conn_estimate
    utilization = in_bytes / run.capacity[:, None]
    mask = utilization > threshold  # the bursty samples
    contention = mask.sum(axis=0)
    bursts = _burst_rows(
        in_bytes, run.in_retx_bytes, conns, mask, loss_lag_buckets, contention=contention
    )

    # Bursts per server: the rising edges of each row's mask.
    burst_counts = mask[:, 0] + np.count_nonzero(mask[:, 1:] & ~mask[:, :-1], axis=1)
    bursty = mask.any(axis=1)
    avg_utilization = utilization.mean(axis=1)
    utilization_inside = np.full(servers, np.nan)
    utilization_outside = avg_utilization.copy()
    conns_inside = np.full(servers, np.nan)
    conns_outside = conns.mean(axis=1)
    in_burst_bytes = np.zeros(servers)
    for index in np.flatnonzero(bursty).tolist():
        inside = mask[index]
        outside = ~inside
        utilization_inside[index] = utilization[index][inside].mean()
        conns_inside[index] = conns[index][inside].mean()
        in_burst_bytes[index] = in_bytes[index][inside].sum()
        if outside.any():
            utilization_outside[index] = utilization[index][outside].mean()
            conns_outside[index] = conns[index][outside].mean()
        else:
            utilization_outside[index] = conns_outside[index] = np.nan
    total_in_bytes = in_bytes.sum(axis=1)
    server_rows = np.column_stack(
        (
            np.arange(servers),
            bursty,
            avg_utilization,
            utilization_inside,
            utilization_outside,
            burst_counts / run.duration,
            conns_inside,
            conns_outside,
            total_in_bytes,
            in_burst_bytes,
        )
    ).astype(np.float64, copy=False)

    stats = contention_stats(contention)
    extras = run.extras
    run_row = np.array(
        (
            run.hour,
            servers,
            run.buckets,
            run.sampling_interval,
            stats.mean,
            stats.min_active,
            stats.p90,
            stats.max,
            stats.frac_zero,
            len(bursts),
            int(np.count_nonzero(bursty)),
            run.switch_discard_bytes,
            run.switch_ingress_bytes,
            # Python's sum: left to right over the servers.
            sum(total_in_bytes.tolist()),
            bool(extras.get("colocated", False)),
            extras.get("distinct_tasks", 0),
            extras.get("dominant_share", 0.0),
        ),
        dtype=np.float64,
    )
    return RunRows(run_row, bursts, server_rows)
