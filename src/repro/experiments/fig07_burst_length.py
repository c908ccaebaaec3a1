"""Figure 7: burst length distribution — all, contended, non-contended.

Paper: median 2 ms, p90 8 ms overall; 84.8% of RegA bursts contended;
non-contended bursts are shorter (88% below 3 ms) and smaller (median
1 MB vs 1.8 MB; p90 2.9 MB vs 9 MB).
"""

from __future__ import annotations

import numpy as np

from ..analysis.stats import cdf, cdf_value_at, percentile
from ..viz.ascii import ascii_cdf
from ..viz.series import Series
from .base import ExperimentResult
from .context import ExperimentContext


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Regenerate this artifact (see module docstring)."""
    dataset = ctx.dataset("RegA")
    interval = dataset.columns("runs", ("sampling_interval",))["sampling_interval"]
    bursts = dataset.columns("bursts", ("run_row", "length", "volume", "max_contention"))
    all_arr = bursts["length"] * (interval / 1e-3)[bursts["run_row"].astype(np.int64)]
    all_volumes = bursts["volume"]
    contended = bursts["max_contention"] >= 2
    contended_lengths = all_arr[contended]
    non_contended_lengths = all_arr[~contended]
    non_contended_volumes = all_volumes[~contended]
    contended_fraction = contended_lengths.size / all_arr.size
    metrics = {
        "median_length_ms": percentile(all_arr, 50),
        "p90_length_ms": percentile(all_arr, 90),
        "contended_fraction": contended_fraction,
        "non_contended_under_3ms_pct": cdf_value_at(non_contended_lengths, 3.0),
        "median_volume_mb": float(np.median(all_volumes)) / 1e6,
        "p90_volume_mb": float(np.percentile(all_volumes, 90)) / 1e6,
        "nc_median_volume_mb": float(np.median(non_contended_volumes)) / 1e6,
        "nc_p90_volume_mb": float(np.percentile(non_contended_volumes, 90)) / 1e6,
    }
    groups = {
        "all": all_arr,
        "non-contended": non_contended_lengths,
        "contended": contended_lengths,
    }
    series = []
    for name, values in groups.items():
        x, y = cdf(values)
        series.append(Series(name, x, y))
    rendering = ascii_cdf(
        groups, x_label="burst length (ms)",
        title="Figure 7: burst length distribution (RegA)",
    )
    return ExperimentResult(
        experiment_id="fig7",
        title="Burst length distribution",
        paper_claim=(
            "Median burst 2 ms, p90 8 ms; 84.8% of bursts contended; 88% of "
            "non-contended bursts under 3 ms; volumes: median 1.8 MB "
            "(p90 9 MB) overall vs 1 MB (2.9 MB) non-contended."
        ),
        series=series,
        metrics=metrics,
        rendering=rendering,
        notes=(
            f"median {metrics['median_length_ms']:.0f} ms (2), p90 "
            f"{metrics['p90_length_ms']:.0f} ms (8); contended "
            f"{contended_fraction * 100:.1f}% (84.8); non-contended <3 ms: "
            f"{metrics['non_contended_under_3ms_pct']:.0f}% (88); volume "
            f"median/p90 {metrics['median_volume_mb']:.1f}/"
            f"{metrics['p90_volume_mb']:.1f} MB (1.8/9); non-contended "
            f"{metrics['nc_median_volume_mb']:.1f}/{metrics['nc_p90_volume_mb']:.1f} MB "
            f"(1.0/2.9)."
        ),
    )
