"""Figure 18: burst length vs loss, contended vs non-contended.

Paper (RegA-Typical): loss is low for very short bursts (buffers
absorb them), rises sharply with length, then stabilizes once bursts
are long enough for congestion control to adapt; past ~8 ms, contended
bursts stay lossier than non-contended ones.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..viz.ascii import ascii_plot
from ..viz.series import Series
from .base import ExperimentResult
from .context import ExperimentContext

#: Burst-length buckets in milliseconds.
LENGTH_EDGES = np.array([1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24])


def typical_loss_counts(
    ctx: ExperimentContext, bucket_of: Callable[[dict[str, np.ndarray]], np.ndarray]
) -> dict[str, dict[int, tuple[int, int]]]:
    """group -> bucket -> (bursts, lossy bursts) over RegA-Typical
    bursts; ``bucket_of`` maps the burst columns to bucket indices."""
    dataset = ctx.dataset("RegA")
    runs = dataset.columns("runs", ("rack_id", "sampling_interval"))
    bursts = dataset.columns(
        "bursts", ("run_row", "length", "avg_connections", "max_contention", "lossy")
    )
    run_row = bursts["run_row"].astype(np.int64)
    bursts["sampling_interval"] = runs["sampling_interval"][run_row]
    typical = ~ctx.rega_high_mask(runs["rack_id"])[run_row]
    buckets = bucket_of(bursts)
    lossy = bursts["lossy"] != 0
    contended = bursts["max_contention"] >= 2
    counts: dict[str, dict[int, tuple[int, int]]] = {}
    for name, group in (("contended", contended), ("non-contended", ~contended)):
        group = group & typical
        counts[name] = {}
        for bucket in np.unique(buckets[group]).tolist():
            in_bucket = group & (buckets == bucket)
            counts[name][bucket] = (
                int(np.count_nonzero(in_bucket)),
                int(np.count_nonzero(in_bucket & lossy)),
            )
    return counts


def loss_by_length(ctx: ExperimentContext) -> dict[str, dict[int, tuple[int, int]]]:
    """group -> length bucket -> (bursts, lossy bursts), RegA-Typical only."""
    return typical_loss_counts(
        ctx,
        lambda bursts: np.digitize(
            bursts["length"] * (bursts["sampling_interval"] / 1e-3), LENGTH_EDGES
        ),
    )


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Regenerate this artifact (see module docstring)."""
    data = loss_by_length(ctx)
    centers = np.concatenate([LENGTH_EDGES.astype(float), [32.0]])
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

    contended_pct = ys["contended"]
    nc_pct = ys["non-contended"]
    long_mask = centers >= 8
    valid_long = long_mask & np.isfinite(contended_pct) & np.isfinite(nc_pct)
    short_mask = centers <= 2

    def _nanmean(values: np.ndarray) -> float:
        finite = values[np.isfinite(values)]
        return float(finite.mean()) if finite.size else 0.0

    metrics = {
        "short_burst_loss_pct": _nanmean(
            np.concatenate([contended_pct[short_mask], nc_pct[short_mask]])
        ),
        "peak_contended_loss_pct": float(np.nanmax(contended_pct))
        if np.isfinite(contended_pct).any()
        else 0.0,
        "contended_minus_nc_at_long": _nanmean(
            contended_pct[valid_long] - nc_pct[valid_long]
        ),
    }
    rendering = ascii_plot(
        centers, ys,
        x_label="burst length (ms)",
        y_label="% of bursts with loss",
        title="Figure 18: burst length vs loss (RegA-Typical)",
    )
    return ExperimentResult(
        experiment_id="fig18",
        title="Burst length vs loss",
        paper_claim=(
            "Loss starts low (buffers absorb short bursts), rises sharply "
            "with length, then stabilizes as congestion control adapts; "
            "beyond ~8 ms contended bursts are lossier."
        ),
        series=series,
        metrics=metrics,
        rendering=rendering,
        notes=(
            f"loss at <=2 ms: {metrics['short_burst_loss_pct']:.2f}%; peak "
            f"contended loss {metrics['peak_contended_loss_pct']:.2f}%; "
            f"contended exceeds non-contended by "
            f"{metrics['contended_minus_nc_at_long']:.2f} points past 8 ms."
        ),
    )
