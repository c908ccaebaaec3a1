"""Figure 19: connection count (incast degree) vs loss.

Paper (RegA-Typical): loss rises with the number of connections then
stabilizes; contended bursts lose 3-4x more than non-contended bursts
at the same connection count — incast has less buffer to land in when
the rack is contended.
"""

from __future__ import annotations

import numpy as np

from ..viz.ascii import ascii_plot
from ..viz.series import Series
from .base import ExperimentResult
from .context import ExperimentContext
from .fig18_length_loss import typical_loss_counts

#: Average-connection-count bucket edges.
CONN_EDGES = np.array([5, 10, 20, 30, 40, 50, 60, 80, 100])

#: Bursts a group needs in a connection bucket for its loss rate there
#: to be plotted or pooled.
MIN_BURSTS = 20


def loss_by_connections(ctx: ExperimentContext) -> dict[str, dict[int, tuple[int, int]]]:
    """group -> connection bucket -> (bursts, lossy), RegA-Typical only."""
    return typical_loss_counts(
        ctx, lambda bursts: np.digitize(bursts["avg_connections"], CONN_EDGES)
    )


def pooled_contended_to_nc_ratio(data: dict[str, dict[int, tuple[int, int]]]) -> tuple[float, int]:
    """The Mantel–Haenszel pooled risk ratio of loss, contended over
    non-contended bursts, stratified by connection bucket, and the
    number of buckets pooled.

    A bucket is pooled when both groups have at least
    :data:`MIN_BURSTS` bursts in it: with ``a`` of ``n1`` contended and
    ``c`` of ``n0`` non-contended bursts lossy, the ratio is
    ``sum(a * n0 / n) / sum(c * n1 / n)`` with ``n = n1 + n0``.  A bucket
    where neither group lost adds nothing to either sum, and one where
    only contended bursts lost still counts.  NaN when no pooled
    non-contended burst lost.
    """
    numerator = denominator = 0.0
    pooled = 0
    for bucket in sorted(set(data["contended"]) & set(data["non-contended"])):
        n1, a = data["contended"][bucket]
        n0, c = data["non-contended"][bucket]
        if n1 < MIN_BURSTS or n0 < MIN_BURSTS:
            continue
        pooled += 1
        numerator += a * n0 / (n1 + n0)
        denominator += c * n1 / (n1 + n0)
    return (numerator / denominator if denominator else float("nan")), pooled


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Regenerate this artifact (see module docstring)."""
    data = loss_by_connections(ctx)
    centers = np.concatenate([CONN_EDGES.astype(float), [120.0]])
    series = []
    ys = {}
    for name in ("non-contended", "contended"):
        buckets = data[name]
        pct = np.full(len(centers), np.nan)
        for bucket_index in range(len(centers)):
            total, lossy = buckets.get(bucket_index, (0, 0))
            if total >= MIN_BURSTS:
                pct[bucket_index] = lossy / total * 100
        series.append(Series(name, centers, pct))
        ys[name] = pct

    ratio, pooled = pooled_contended_to_nc_ratio(data)
    metrics = {
        "pooled_contended_to_nc_ratio": ratio,
        "max_contended_loss_pct": float(np.nanmax(ys["contended"]))
        if np.isfinite(ys["contended"]).any()
        else 0.0,
    }
    if np.isnan(ratio):
        ratio_note = (
            f"pooled contended/non-contended loss ratio undefined: no non-contended "
            f"burst lost in the {pooled} connection buckets with {MIN_BURSTS}+ bursts "
            f"on both sides"
        )
    else:
        ratio_note = (
            f"pooled contended/non-contended loss ratio {ratio:.1f}x over {pooled} "
            f"connection buckets (paper 3-4x)"
        )
    rendering = ascii_plot(
        centers, ys,
        x_label="avg. number of connections",
        y_label="% of bursts with loss",
        title="Figure 19: incast (connections) vs loss (RegA-Typical)",
    )
    return ExperimentResult(
        experiment_id="fig19",
        title="Incast vs loss",
        paper_claim=(
            "Loss rises with connection count then stabilizes; contended "
            "bursts lose 3-4x more than non-contended at the same count."
        ),
        series=series,
        metrics=metrics,
        rendering=rendering,
        notes=(
            f"{ratio_note}; peak contended loss "
            f"{metrics['max_contended_loss_pct']:.2f}%."
        ),
    )
