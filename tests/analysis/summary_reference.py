"""The object form of a run's reduction, and the historical loops that
are its exactness oracle.

``repro.analysis.summary.run_rows`` reduces a rack run to float64 rows
of the shard store's three tables, the one reduced form in ``src/``.
The tests still compare against objects: :class:`RunSummary`,
:class:`ServerRunStats` and :class:`Burst` are that reduction's fields
with their Python types, :func:`summarize_run` is ``run_rows`` turned
into them, and the ``*_reference`` functions are the historical
per-server loops, kept verbatim so the whole-run burst core can be
checked ``==`` against them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.analysis.bursts import BURST_FIELDS
from repro.analysis.contention import ContentionStats, contention_stats
from repro.analysis.summary import SERVER_FIELDS, RunRows, run_rows
from repro.core.run import MillisamplerRun, StackedRun, SyncRun
from repro.errors import AnalysisError


@dataclass
class Burst:
    """One detected burst on one server: a burst row's fields."""

    server: int  # index within the SyncRun
    start: int  # first bucket of the burst
    length: int  # buckets
    volume: float  # ingress bytes
    avg_connections: float
    retx_bytes: float = 0.0
    max_contention: int = 0
    lossy: bool = False
    first_loss_contention: int = -1

    @property
    def end(self) -> int:
        """One past the last bucket."""
        return self.start + self.length

    @property
    def contended(self) -> bool:
        """The burst saw at least one other simultaneously bursty server
        at some point in its lifetime (Section 6)."""
        return self.max_contention >= 2

    def length_ms(self, sampling_interval: float = units.ANALYSIS_INTERVAL) -> float:
        return self.length * sampling_interval / units.MSEC


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


# The objects hold the rows' columns, in row order.
assert tuple(f.name for f in dataclasses.fields(Burst)) == BURST_FIELDS
assert tuple(f.name for f in dataclasses.fields(ServerRunStats) if f.name != "task") == SERVER_FIELDS

#: Row columns that hold integers and booleans; the rest are floats.
INT_FIELDS = frozenset(
    {"rack_id", "hour", "servers", "buckets", "run_row", "server", "start",
     "length", "max_contention", "first_loss_contention"}
)
BOOL_FIELDS = frozenset({"lossy", "bursty"})


def typed_values(column: np.ndarray, name: str) -> list:
    """A float64 row column as plain Python values: ``int``, ``bool`` or
    ``float``, as the objects hold them (``repr`` of a numpy scalar
    differs)."""
    if name in INT_FIELDS:
        return column.astype(np.int64).tolist()
    if name in BOOL_FIELDS:
        return (column != 0).tolist()
    return column.tolist()


def bursts_from_rows(columns) -> list[Burst]:
    """:class:`Burst` objects from burst-row columns (a mapping from the
    names in ``BURST_FIELDS`` to float64 columns)."""
    return list(map(Burst, *(typed_values(columns[name], name) for name in BURST_FIELDS)))


def server_stats_from_rows(columns, tasks: list[str]) -> list[ServerRunStats]:
    """:class:`ServerRunStats` objects from server-row columns (a mapping
    from the names in ``SERVER_FIELDS`` to float64 columns) and each
    row's task."""
    values = [typed_values(columns[name], name) for name in SERVER_FIELDS]
    return list(map(ServerRunStats, values[0], tasks, *values[1:]))


def summary_from_rows(run: StackedRun, rows: RunRows) -> RunSummary:
    """One run's :class:`RunRows` as its :class:`RunSummary`."""
    return RunSummary(
        rack=run.rack,
        region=run.region,
        hour=run.hour,
        servers=run.servers,
        buckets=run.buckets,
        sampling_interval=run.sampling_interval,
        contention=ContentionStats(*rows.run[4:9].tolist()),
        # Column-major copies: each column converts from contiguous memory.
        bursts=bursts_from_rows(dict(zip(BURST_FIELDS, np.asfortranarray(rows.bursts).T))),
        server_stats=server_stats_from_rows(
            dict(zip(SERVER_FIELDS, np.asfortranarray(rows.servers).T)), run.tasks
        ),
        switch_discard_bytes=run.switch_discard_bytes,
        switch_ingress_bytes=run.switch_ingress_bytes,
        extras=dict(run.extras),
    )


def summarize_run(
    run: SyncRun | StackedRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> RunSummary:
    """``run_rows`` of ``run`` (stacked first if a :class:`SyncRun`) as
    its :class:`RunSummary`."""
    if isinstance(run, SyncRun):
        run = run.stacked()
    return summary_from_rows(run, run_rows(run, threshold, loss_lag_buckets))


def detect_run_bursts(
    sync_run: SyncRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> list[Burst]:
    """Every burst of a rack run, from ``run_rows``."""
    return summarize_run(sync_run, threshold, loss_lag_buckets).bursts


def detect_bursts(
    run: MillisamplerRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> list[Burst]:
    """One server's bursts, from ``run_rows`` of the server as a
    one-server rack run (so contention is 1 in every burst)."""
    sync_run = SyncRun(rack=run.meta.rack, region=run.meta.region, runs=[run])
    return detect_run_bursts(sync_run, threshold, loss_lag_buckets)


def _mask_segments(mask: np.ndarray) -> list[tuple[int, int]]:
    """(start, end) pairs of consecutive-True segments."""
    if mask.size == 0:
        return []
    padded = np.concatenate([[False], mask, [False]])
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(changes[i]), int(changes[i + 1])) for i in range(0, len(changes), 2)]


def detect_bursts_reference(
    run: MillisamplerRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
    server: int = 0,
) -> list[Burst]:
    """The historical one-server burst detector."""
    if loss_lag_buckets < 0:
        raise AnalysisError("loss lag cannot be negative")
    mask = run.bursty_mask(threshold)
    bursts: list[Burst] = []
    segments = _mask_segments(mask)
    for index, (start, end) in enumerate(segments):
        window_end = min(end + loss_lag_buckets, run.buckets)
        if index + 1 < len(segments):
            window_end = min(window_end, segments[index + 1][0])
        retx = float(run.in_retx_bytes[start:window_end].sum())
        bursts.append(
            Burst(
                server=server,
                start=start,
                length=end - start,
                volume=float(run.in_bytes[start:end].sum()),
                avg_connections=float(run.conn_estimate[start:end].mean()),
                retx_bytes=retx,
                lossy=retx > 0,
            )
        )
    return bursts


def annotate_contention_reference(
    burst: Burst,
    run: MillisamplerRun,
    contention: np.ndarray,
    loss_lag_buckets: int = 2,
) -> None:
    """The historical per-burst contention annotation."""
    burst.max_contention = int(contention[burst.start : burst.end].max())
    if not burst.lossy:
        burst.first_loss_contention = -1
        return
    window_end = min(burst.end + loss_lag_buckets, run.buckets)
    retx_window = run.in_retx_bytes[burst.start : window_end]
    first_retx = burst.start + int(np.argmax(retx_window > 0))
    loss_bucket = max(first_retx - loss_lag_buckets, burst.start)
    loss_bucket = min(loss_bucket, burst.end - 1)
    burst.first_loss_contention = int(contention[loss_bucket])


def detect_run_bursts_reference(
    sync_run: SyncRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> list[Burst]:
    """The historical rack-run burst detector: one server at a time."""
    contention = sync_run.contention_series(threshold)
    bursts: list[Burst] = []
    for index, run in enumerate(sync_run.runs):
        for burst in detect_bursts_reference(run, threshold, loss_lag_buckets, server=index):
            annotate_contention_reference(burst, run, contention, loss_lag_buckets)
            bursts.append(burst)
    return bursts


def summarize_run_reference(
    sync_run: SyncRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> RunSummary:
    """The historical ``summarize_run``: a loop over servers."""
    if sync_run.buckets == 0:
        raise AnalysisError("cannot summarize an empty run")
    contention = sync_run.contention_series(threshold)
    stats = contention_stats(contention)
    duration = sync_run.duration

    all_bursts: list[Burst] = []
    server_stats: list[ServerRunStats] = []
    for index, run in enumerate(sync_run.runs):
        bursts = detect_bursts_reference(run, threshold, loss_lag_buckets, server=index)
        for burst in bursts:
            annotate_contention_reference(burst, run, contention, loss_lag_buckets)
        all_bursts.extend(bursts)

        utilization = run.ingress_utilization()
        mask = run.bursty_mask(threshold)
        inside = utilization[mask]
        outside = utilization[~mask]
        conns = run.conn_estimate
        total_in = float(run.in_bytes.sum())
        in_burst = float(run.in_bytes[mask].sum())
        server_stats.append(
            ServerRunStats(
                server=index,
                task=run.meta.task,
                bursty=bool(mask.any()),
                avg_utilization=float(utilization.mean()),
                utilization_in_bursts=float(inside.mean()) if inside.size else float("nan"),
                utilization_outside_bursts=(
                    float(outside.mean()) if outside.size else float("nan")
                ),
                bursts_per_second=len(bursts) / duration,
                conns_inside=float(conns[mask].mean()) if mask.any() else float("nan"),
                conns_outside=float(conns[~mask].mean()) if (~mask).any() else float("nan"),
                total_in_bytes=total_in,
                in_burst_bytes=in_burst,
            )
        )

    return RunSummary(
        rack=sync_run.rack,
        region=sync_run.region,
        hour=sync_run.hour,
        servers=sync_run.servers,
        buckets=sync_run.buckets,
        sampling_interval=sync_run.sampling_interval,
        contention=stats,
        bursts=all_bursts,
        server_stats=server_stats,
        switch_discard_bytes=sync_run.switch_discard_bytes,
        switch_ingress_bytes=sync_run.switch_ingress_bytes,
        extras=dict(sync_run.extras),
    )
