"""Burst detection and per-burst properties (Sections 5, 6, 8).

A burst is "any consecutive set of one or more sample data points that
exceeds 50% of line rate" on ingress.  Each burst is annotated with the
properties the joint analysis needs: length, volume, average
connection count, the maximum contention over its lifetime, whether it
was contended at all, and whether it was lossy (retransmissions
observed within an RTT after the loss — in practice, retransmitted
bytes arriving during the burst or in the following buckets,
Section 4.6).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .. import units
from ..core.run import MillisamplerRun, StackedRun, SyncRun
from ..errors import AnalysisError


@dataclass
class Burst:
    """One detected burst on one server."""

    server: int  # index within the SyncRun
    start: int  # first bucket of the burst
    length: int  # buckets
    volume: float  # ingress bytes
    avg_connections: float
    retx_bytes: float = 0.0
    max_contention: int = 0
    lossy: bool = False
    #: Contention at the (approximate) time of the burst's first loss:
    #: the bucket where retransmitted bytes first appear, minus the
    #: repair lag.  The paper's alternate Section 8 methodology; -1
    #: when the burst is not lossy.
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


#: Segments shorter than this are summed one bucket at a time, left to
#: right, which is what ``ndarray.sum()`` does below eight elements;
#: longer ones call ``.sum()`` itself (pairwise from eight up).
_SEQUENTIAL_SUM_LIMIT = 8


def _segment_sums(matrix: np.ndarray, rows: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``matrix[row, start:start + length].sum()`` for every segment,
    bit for bit.

    ``np.add.reduceat`` adds in a different order than ``.sum()``, so
    short segments accumulate one column at a time from 0.0 (the
    order ``.sum()`` uses below eight elements) and longer segments call
    ``.sum()`` on their slice.
    """
    flat = matrix.reshape(-1)
    totals = np.zeros(len(starts))
    short = lengths < _SEQUENTIAL_SUM_LIMIT
    first = rows * matrix.shape[1] + starts
    for offset in range(_SEQUENTIAL_SUM_LIMIT - 1):
        take = short & (lengths > offset)
        totals[take] += flat[first[take] + offset]
    for index in np.flatnonzero(~short).tolist():
        start = int(starts[index])
        totals[index] = matrix[rows[index], start : start + int(lengths[index])].sum()
    return totals


#: A burst row's columns: the fields of :class:`Burst`, in order.
BURST_FIELDS: tuple[str, ...] = tuple(field.name for field in dataclasses.fields(Burst))

#: Row columns that hold integers and booleans; the rest are floats.
INT_FIELDS = frozenset(
    {"rack_id", "hour", "servers", "buckets", "run_row", "server", "start",
     "length", "max_contention", "first_loss_contention"}
)
BOOL_FIELDS = frozenset({"lossy", "bursty"})


def typed_values(column: np.ndarray, name: str) -> list:
    """A float64 row column as plain Python values: ``int``, ``bool`` or
    ``float``, as the object form holds them (``repr`` of a numpy scalar
    differs)."""
    if name in INT_FIELDS:
        return column.astype(np.int64).tolist()
    if name in BOOL_FIELDS:
        return (column != 0).tolist()
    return column.tolist()


def bursts_from_rows(columns) -> list[Burst]:
    """:class:`Burst` objects from burst-row columns (a mapping from the
    names in :data:`BURST_FIELDS` to float64 columns)."""
    return list(map(Burst, *(typed_values(columns[name], name) for name in BURST_FIELDS)))


def _find_bursts(*args, **kwargs) -> list[Burst]:
    """:func:`_burst_rows` as :class:`Burst` objects."""
    return bursts_from_rows(dict(zip(BURST_FIELDS, np.asfortranarray(_burst_rows(*args, **kwargs)).T)))


def _burst_rows(
    in_bytes: np.ndarray,
    in_retx_bytes: np.ndarray,
    conn_estimate: np.ndarray,
    mask: np.ndarray,
    loss_lag_buckets: int,
    contention: np.ndarray | None = None,
    first_server: int = 0,
) -> np.ndarray:
    """Every burst of a run, from its ``(servers, buckets)`` matrices,
    as one float64 row per burst (columns :data:`BURST_FIELDS`).

    ``mask`` marks the bursty samples.  One segment pass finds the
    bursts of every server, in server order and, within a server, in
    time order.  ``contention`` (per bucket) adds both of Section 8's
    contention views; without it they keep their defaults.  Row ``i``
    is server ``first_server + i``.
    """
    if loss_lag_buckets < 0:
        raise AnalysisError("loss lag cannot be negative")
    servers, buckets = mask.shape
    padded = np.zeros((servers, buckets + 2), dtype=bool)
    padded[:, 1:-1] = mask
    rows, edges = np.nonzero(padded[:, 1:] != padded[:, :-1])
    # Edges alternate start, end within each row.
    rows = rows[0::2]
    starts = edges[0::2]
    ends = edges[1::2]
    lengths = ends - starts
    if len(starts) == 0:
        return np.empty((0, len(BURST_FIELDS)))

    # The loss window runs `loss_lag_buckets` past the burst (a loss is
    # repaired about an RTT later, Section 4.6), clipped at the end of
    # the run and at the server's next burst, so that burst's
    # retransmissions are never counted twice.
    window_ends = np.minimum(ends + loss_lag_buckets, buckets)
    same_server_next = np.flatnonzero(rows[1:] == rows[:-1])
    window_ends[same_server_next] = np.minimum(
        window_ends[same_server_next], starts[same_server_next + 1]
    )
    retx = _segment_sums(in_retx_bytes, rows, starts, window_ends - starts)
    volume = _segment_sums(in_bytes, rows, starts, lengths)
    avg_connections = _segment_sums(conn_estimate, rows, starts, lengths) / lengths
    lossy = retx > 0

    # Primary methodology: the maximum contention over the burst's
    # lifetime.  Alternate one: a lossy burst's contention at its first
    # loss — the first bucket with retransmitted bytes, shifted back by
    # the repair lag and kept inside the burst ("bursts tend to see
    # slightly lower contention levels at the time of their first
    # loss", Section 8).
    max_contention = np.zeros(len(starts), dtype=np.int64)
    first_loss = np.full(len(starts), -1, dtype=np.int64)
    if contention is not None:
        bounds = np.empty(2 * len(starts), dtype=np.intp)
        bounds[0::2] = starts
        bounds[1::2] = ends
        max_contention = np.maximum.reduceat(np.append(contention, 0), bounds)[0::2]
        lossy_index = np.flatnonzero(lossy)
        if len(lossy_index):
            repaired = np.flatnonzero(in_retx_bytes.reshape(-1) > 0)
            row_origin = rows[lossy_index] * buckets
            first_retx = (
                repaired[np.searchsorted(repaired, row_origin + starts[lossy_index])]
                - row_origin
            )
            loss_bucket = np.minimum(
                np.maximum(first_retx - loss_lag_buckets, starts[lossy_index]),
                ends[lossy_index] - 1,
            )
            first_loss[lossy_index] = contention[loss_bucket]
    # In BURST_FIELDS order; every value is exact in float64.
    return np.column_stack(
        (
            rows + first_server,
            starts,
            lengths,
            volume,
            avg_connections,
            retx,
            max_contention,
            lossy,
            first_loss,
        )
    ).astype(np.float64, copy=False)


def _run_matrices(run: StackedRun, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """A stacked rack run's ``(servers, buckets)`` ingress utilization
    and bursty-sample mask (utilization above ``threshold``)."""
    utilization = run.in_bytes / run.capacity[:, None]
    return utilization, utilization > threshold


def detect_bursts(
    run: MillisamplerRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
    server: int = 0,
) -> list[Burst]:
    """Detect bursts in one server's run and annotate loss.

    ``loss_lag_buckets`` extends the retransmission-observation window
    past the end of the burst: retransmissions repair a loss roughly an
    RTT after it happened, so a burst's losses surface slightly later
    (Section 4.6: "our analysis must look for retransmissions that
    occur an RTT later").  The window is clipped at the next burst's
    first bucket — when two bursts sit closer together than the lag, an
    unclipped window would sweep up the next burst's retransmissions,
    double-counting the bytes and marking both bursts lossy from one
    loss event.  Contention needs the whole rack: see
    :func:`detect_run_bursts`.
    """
    return _find_bursts(
        np.asarray(run.in_bytes, dtype=np.float64)[None],
        np.asarray(run.in_retx_bytes, dtype=np.float64)[None],
        np.asarray(run.conn_estimate, dtype=np.float64)[None],
        run.bursty_mask(threshold)[None],
        loss_lag_buckets,
        first_server=server,
    )


def detect_run_bursts(
    sync_run: SyncRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> list[Burst]:
    """Detect bursts across every server of a rack run and annotate each
    with the maximum contention over its lifetime (Section 8
    methodology: "we consider the contention level at each sample point
    of the burst, and take the maximum") and with the contention at its
    first loss."""
    run = sync_run.stacked()
    _utilization, mask = _run_matrices(run, threshold)
    return _find_bursts(
        run.in_bytes, run.in_retx_bytes, run.conn_estimate, mask, loss_lag_buckets,
        contention=mask.sum(axis=0),
    )


def burst_frequency(bursts: list[Burst], duration_s: float) -> float:
    """Bursts per second over a run (Figure 6's metric)."""
    if duration_s <= 0:
        raise AnalysisError("duration must be positive")
    return len(bursts) / duration_s


def bursty_fraction_of_bytes(run: MillisamplerRun, bursts: list[Burst]) -> float:
    """Fraction of a run's ingress bytes carried inside bursts
    (Section 5: 49.7% fleet-wide)."""
    total = float(run.in_bytes.sum())
    if total == 0:
        return 0.0
    in_bursts = sum(burst.volume for burst in bursts)
    return in_bursts / total
