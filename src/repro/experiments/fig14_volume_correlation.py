"""Figure 14: average contention vs per-minute rack ingress volume.

Production switches export volume at 1-minute granularity, so the
paper buckets runs by the rack's ingress bytes over the minute of the
run and shows contention rising with volume.  The fluid dataset keeps
per-run switch ingress counters; we scale them to per-minute rates.
"""

from __future__ import annotations

import numpy as np

from ..analysis.stats import bucket_means, pearson_correlation
from ..viz.ascii import ascii_plot
from ..viz.series import Series
from .base import ExperimentResult
from .context import ExperimentContext


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Regenerate this artifact (see module docstring)."""
    runs = ctx.dataset("RegA").columns(
        "runs", ("buckets", "sampling_interval", "switch_ingress_bytes", "contention_mean")
    )
    duration_s = runs["buckets"] * runs["sampling_interval"]
    timed = duration_s > 0
    per_minute = runs["switch_ingress_bytes"][timed] / duration_s[timed] * 60.0
    volumes_arr = per_minute / 1e9  # GB per minute
    contentions_arr = runs["contention_mean"][timed]

    edges = np.percentile(volumes_arr, np.linspace(0, 100, 9))
    edges = np.unique(edges)
    centers, means, counts = bucket_means(volumes_arr, contentions_arr, edges)
    valid = ~np.isnan(means)
    correlation = pearson_correlation(volumes_arr, contentions_arr)

    series = [Series("avg-contention", centers[valid], means[valid])]
    rendering = ascii_plot(
        centers[valid],
        {"avg contention": means[valid]},
        x_label="rack ingress (GB per minute)",
        y_label="avg contention",
        title="Figure 14: contention vs rack ingress volume (RegA)",
        height=12,
    )
    monotonic_fraction = float(
        (np.diff(means[valid]) > 0).mean()
    ) if valid.sum() > 1 else 0.0
    return ExperimentResult(
        experiment_id="fig14",
        title="Contention vs ingress traffic volume",
        paper_claim=(
            "Ingress volumes show a clear (but loose) positive correlation "
            "with average contention."
        ),
        series=series,
        metrics={
            "pearson_r": correlation,
            "monotonic_bucket_fraction": monotonic_fraction,
        },
        rendering=rendering,
        notes=(
            f"Pearson r = {correlation:.2f} between per-minute ingress and "
            f"average contention; {monotonic_fraction * 100:.0f}% of adjacent "
            f"volume buckets increase monotonically."
        ),
    )
