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


def loss_by_connections(ctx: ExperimentContext) -> dict[str, dict[int, tuple[int, int]]]:
    """group -> connection bucket -> (bursts, lossy), RegA-Typical only."""
    return typical_loss_counts(
        ctx, lambda bursts: np.digitize(bursts["avg_connections"], CONN_EDGES)
    )


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
            if total >= 20:
                pct[bucket_index] = lossy / total * 100
        series.append(Series(name, centers, pct))
        ys[name] = pct

    both_valid = np.isfinite(ys["contended"]) & np.isfinite(ys["non-contended"])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = ys["contended"][both_valid] / np.maximum(
            ys["non-contended"][both_valid], 1e-9
        )
    finite_ratios = ratios[np.isfinite(ratios) & (ratios < 100)]
    metrics = {
        "median_contended_to_nc_ratio": float(np.median(finite_ratios))
        if finite_ratios.size
        else 0.0,
        "max_contended_loss_pct": float(np.nanmax(ys["contended"]))
        if np.isfinite(ys["contended"]).any()
        else 0.0,
    }
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
            f"median contended/non-contended loss ratio "
            f"{metrics['median_contended_to_nc_ratio']:.1f}x (paper 3-4x); "
            f"peak contended loss {metrics['max_contended_loss_pct']:.2f}%."
        ),
    )
