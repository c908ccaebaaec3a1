"""Per-run reduction: everything the fleet-scale figures need, without
keeping raw sample series in memory.

A full day of the paper's data is 8.16 billion samples; the analyses
all operate on per-run aggregates (burst records, contention
statistics, utilization summaries).  :func:`summarize_run` computes
those once per rack run — a :class:`~repro.core.run.SyncRun`, or the
:class:`~repro.core.run.StackedRun` the fleet synthesizer builds
straight from its fluid batch — letting the dataset generator discard
the raw series immediately, the same reduce-then-aggregate shape a
production pipeline uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import units
from ..core.run import StackedRun, SyncRun
from ..errors import AnalysisError
from .bursts import Burst, _find_bursts, _run_matrices
from .contention import ContentionStats, contention_stats


@dataclass
class ServerRunStats:
    """Per-server-run aggregates (the unit of Figures 6 and 8)."""

    server: int
    task: str
    bursty: bool  # had at least one burst
    avg_utilization: float
    utilization_in_bursts: float  # NaN when no bursts
    utilization_outside_bursts: float
    bursts_per_second: float
    conns_inside: float  # mean connection estimate inside bursts (NaN if none)
    conns_outside: float
    total_in_bytes: float
    in_burst_bytes: float


@dataclass
class RunSummary:
    """Everything the experiments keep about one rack run."""

    rack: str
    region: str
    hour: int
    servers: int
    buckets: int
    sampling_interval: float
    contention: ContentionStats
    bursts: list[Burst]
    server_stats: list[ServerRunStats]
    switch_discard_bytes: float
    switch_ingress_bytes: float
    extras: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.buckets * self.sampling_interval

    @property
    def total_in_bytes(self) -> float:
        return sum(stat.total_in_bytes for stat in self.server_stats)

    def bursty_server_runs(self) -> int:
        return sum(1 for stat in self.server_stats if stat.bursty)


def summarize_run(
    run: SyncRun | StackedRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> RunSummary:
    """Reduce one rack run to its :class:`RunSummary`.

    Works on the run's stacked ``(servers, buckets)`` matrices: a
    :class:`SyncRun` is stacked first (:meth:`SyncRun.stacked`), and a
    :class:`StackedRun` is read as it is, so both give the same summary
    for the same run.  Only its ingress, retransmitted-ingress and
    connection-estimate series are read.  One segment pass finds every
    burst of every server, and the per-server aggregates are row
    reductions.  Only bursty servers need the masked means inside and
    outside their bursts, taken as ``.mean()`` of the compacted row.
    """
    if isinstance(run, SyncRun):
        run = run.stacked()
    if run.buckets == 0:
        raise AnalysisError("cannot summarize an empty run")
    servers = run.servers
    in_bytes, conns = run.in_bytes, run.conn_estimate
    utilization, mask = _run_matrices(run, threshold)
    contention = mask.sum(axis=0)
    bursts = _find_bursts(
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
    server_stats = list(
        map(
            ServerRunStats,
            range(servers),
            run.tasks,
            bursty.tolist(),
            avg_utilization.tolist(),
            utilization_inside.tolist(),
            utilization_outside.tolist(),
            (burst_counts / run.duration).tolist(),
            conns_inside.tolist(),
            conns_outside.tolist(),
            in_bytes.sum(axis=1).tolist(),
            in_burst_bytes.tolist(),
        )
    )

    return RunSummary(
        rack=run.rack,
        region=run.region,
        hour=run.hour,
        servers=servers,
        buckets=run.buckets,
        sampling_interval=run.sampling_interval,
        contention=contention_stats(contention),
        bursts=bursts,
        server_stats=server_stats,
        switch_discard_bytes=run.switch_discard_bytes,
        switch_ingress_bytes=run.switch_ingress_bytes,
        extras=dict(run.extras),
    )
