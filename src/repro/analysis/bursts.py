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

import numpy as np

from ..errors import AnalysisError

#: A burst row's columns.  ``server`` indexes the run's servers,
#: ``start`` (first bucket) and ``length`` count sample buckets, and
#: ``volume`` and ``retx_bytes`` are ingress bytes.  ``max_contention``
#: is the most servers bursting at once during the burst (2 or more:
#: contended, Section 6), ``lossy`` is 1.0 when retransmitted bytes
#: arrived in the burst's loss window, and ``first_loss_contention`` is
#: the contention at the (approximate) time of its first loss — the
#: bucket where retransmitted bytes first appear, minus the repair lag:
#: the paper's alternate Section 8 methodology; -1 when not lossy.
BURST_FIELDS: tuple[str, ...] = (
    "server",
    "start",
    "length",
    "volume",
    "avg_connections",
    "retx_bytes",
    "max_contention",
    "lossy",
    "first_loss_contention",
)


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


def _burst_rows(
    in_bytes: np.ndarray,
    in_retx_bytes: np.ndarray,
    conn_estimate: np.ndarray,
    mask: np.ndarray,
    loss_lag_buckets: int,
    contention: np.ndarray,
) -> np.ndarray:
    """Every burst of a run, from its ``(servers, buckets)`` matrices,
    as one float64 row per burst (columns :data:`BURST_FIELDS`).

    ``mask`` marks the bursty samples and ``contention`` counts them
    per bucket.  One segment pass finds the bursts of every server, in
    server order and, within a server, in time order.
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
    # repaired about an RTT later, Section 4.6: "our analysis must look
    # for retransmissions that occur an RTT later"), clipped at the end
    # of the run and at the server's next burst, so that burst's
    # retransmissions are never counted twice nor mark both bursts
    # lossy from one loss event.
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
    bounds = np.empty(2 * len(starts), dtype=np.intp)
    bounds[0::2] = starts
    bounds[1::2] = ends
    max_contention = np.maximum.reduceat(np.append(contention, 0), bounds)[0::2]
    first_loss = np.full(len(starts), -1, dtype=np.int64)
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
            rows,
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
