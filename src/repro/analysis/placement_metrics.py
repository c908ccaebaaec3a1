"""Candidate placement metrics (Section 9, "Placement algorithms").

The paper: "While the degree of contention is a potential metric to
consider (which we show only loosely correlates with traffic volumes),
the fact that higher contention does not translate to more loss across
workloads indicates the need for more detailed metrics that combine
burst properties and contention."

:func:`score_racks` computes three candidate per-rack scores a
placement scheduler could consume, from a region's run and burst
columns, so their predictive power for realized loss can be compared
(the ``implication-placement`` experiment):

* ``volume`` — per-minute ingress bytes (what SNMP counters already
  give a scheduler);
* ``contention`` — average contention (what SyncMillisampler newly
  measures);
* ``burst_risk`` — the combined metric the paper calls for: how much
  of the rack's burst volume arrives in the loss-prone regime
  (contended, mid-length, high fan-in bursts from unadapted senders).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..errors import AnalysisError
from .stats import running_sum

#: The run and burst columns :func:`score_racks` reads.
SCORE_RUN_COLUMNS = ("rack_id", "buckets", "sampling_interval", "switch_ingress_bytes", "contention_mean")
SCORE_BURST_COLUMNS = ("run_row", "length", "volume", "avg_connections", "max_contention", "lossy")


def _rows_by_rack(racks: np.ndarray) -> dict[int, np.ndarray]:
    """Each rack's row indices, in row order."""
    order = np.argsort(racks, kind="stable")
    keys, starts = np.unique(racks[order], return_index=True)
    return dict(zip(keys.tolist(), np.split(order, starts[1:])))


def score_racks(
    rack_names: Sequence[str],
    runs: Mapping[str, np.ndarray],
    bursts: Mapping[str, np.ndarray],
    length_band_ms: tuple[float, float] = (3.0, 12.0),
    fanin_floor: float = 30.0,
) -> dict[str, dict[str, float]]:
    """All candidate scores plus realized loss, per rack name.

    ``runs`` and ``bursts`` hold :data:`SCORE_RUN_COLUMNS` and
    :data:`SCORE_BURST_COLUMNS` (a burst's ``run_row`` indexes
    ``runs``); ``rack_names`` names each ``rack_id``.  ``burst_risk``
    is the fraction of a rack's burst volume in contended bursts of
    intermediate length with high fan-in: Section 8.3 locates losses at
    6-10 ms and 50-60 connections, and the band here is slightly wider.
    ``realized_loss`` is the rack's lossy-burst fraction.  Sums and
    means follow row order, so columns in global order give the bits a
    run-by-run loop gives.
    """
    rack_of_run = runs["rack_id"].astype(np.int64)
    if rack_of_run.size == 0:
        raise AnalysisError("no runs to score")
    run_row = bursts["run_row"].astype(np.int64)
    duration_s = runs["buckets"] * runs["sampling_interval"]
    lengths = bursts["length"] * (runs["sampling_interval"] / 1e-3)[run_row]
    risky = (
        (bursts["max_contention"] >= 2)
        & (length_band_ms[0] <= lengths)
        & (lengths <= length_band_ms[1])
        & (bursts["avg_connections"] >= fanin_floor)
    )
    lossy = bursts["lossy"] != 0
    burst_rows = _rows_by_rack(rack_of_run[run_row])
    no_bursts = np.empty(0, dtype=np.int64)
    scores: dict[str, dict[str, float]] = {}
    for rack, own_runs in _rows_by_rack(rack_of_run).items():
        timed = own_runs[duration_s[own_runs] > 0]
        rates = runs["switch_ingress_bytes"][timed] / duration_s[timed] * 60 / 1e9
        own_bursts = burst_rows.get(rack, no_bursts)
        volume = bursts["volume"][own_bursts]
        total = running_sum(volume)
        scores[rack_names[rack]] = {
            "volume": float(np.mean(rates)) if rates.size else 0.0,
            "contention": float(np.mean(runs["contention_mean"][own_runs])),
            "burst_risk": running_sum(volume[risky[own_bursts]]) / total if total else 0.0,
            "realized_loss": (
                int(np.count_nonzero(lossy[own_bursts])) / own_bursts.size
                if own_bursts.size
                else 0.0
            ),
        }
    return scores


def rank_correlation(x: list[float], y: list[float]) -> float:
    """Spearman rank correlation (scipy-free, ties by average rank)."""
    if len(x) != len(y) or len(x) < 3:
        raise AnalysisError("rank correlation needs >= 3 aligned samples")

    def ranks(values: list[float]) -> np.ndarray:
        array = np.asarray(values, dtype=np.float64)
        order = np.argsort(array, kind="stable")
        rank = np.empty(len(array))
        rank[order] = np.arange(len(array), dtype=np.float64)
        # average ties
        for value in np.unique(array):
            mask = array == value
            if mask.sum() > 1:
                rank[mask] = rank[mask].mean()
        return rank

    rx, ry = ranks(x), ranks(y)
    if rx.std() == 0 or ry.std() == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])
