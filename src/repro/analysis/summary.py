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
pipeline uses.  :func:`summarize_run` is the same reduction as a
:class:`RunSummary` object, for the callers that hold raw runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .. import units
from ..core.run import StackedRun, SyncRun
from ..errors import AnalysisError
from .bursts import BURST_FIELDS, Burst, _burst_rows, _run_matrices, bursts_from_rows, typed_values
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

#: A server row's columns: the fields of :class:`ServerRunStats` in
#: order except ``task``, which the run's placement supplies.
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


def server_stats_from_rows(columns, tasks: list[str]) -> list[ServerRunStats]:
    """:class:`ServerRunStats` objects from server-row columns (a mapping
    from the names in :data:`SERVER_FIELDS` to float64 columns) and each
    row's task."""
    values = [typed_values(columns[name], name) for name in SERVER_FIELDS]
    return list(map(ServerRunStats, values[0], tasks, *values[1:]))


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
    utilization, mask = _run_matrices(run, threshold)
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
            # Python's sum, as RunSummary.total_in_bytes adds.
            sum(total_in_bytes.tolist()),
            bool(extras.get("colocated", False)),
            extras.get("distinct_tasks", 0),
            extras.get("dominant_share", 0.0),
        ),
        dtype=np.float64,
    )
    return RunRows(run_row, bursts, server_rows)


def summarize_run(
    run: SyncRun | StackedRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> RunSummary:
    """Reduce one rack run to its :class:`RunSummary`: :func:`run_rows`
    as objects.

    A :class:`SyncRun` is stacked first (:meth:`SyncRun.stacked`), and a
    :class:`StackedRun` is read as it is, so both give the same summary
    for the same run.
    """
    if isinstance(run, SyncRun):
        run = run.stacked()
    rows = run_rows(run, threshold, loss_lag_buckets)
    contention = ContentionStats(*rows.run[4:9].tolist())
    return RunSummary(
        rack=run.rack,
        region=run.region,
        hour=run.hour,
        servers=run.servers,
        buckets=run.buckets,
        sampling_interval=run.sampling_interval,
        contention=contention,
        # Column-major copies: each column converts from contiguous memory.
        bursts=bursts_from_rows(dict(zip(BURST_FIELDS, np.asfortranarray(rows.bursts).T))),
        server_stats=server_stats_from_rows(
            dict(zip(SERVER_FIELDS, np.asfortranarray(rows.servers).T)), run.tasks
        ),
        switch_discard_bytes=run.switch_discard_bytes,
        switch_ingress_bytes=run.switch_ingress_bytes,
        extras=dict(run.extras),
    )
