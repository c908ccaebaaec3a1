"""Figure 8: connection counts inside vs outside bursts.

Paper: more connections are active inside a burst than outside, with a
median ratio of 2.7x — the signature of fan-in (incast) driving bursts.
"""

from __future__ import annotations

import numpy as np

from ..analysis.stats import cdf, percentile
from ..viz.ascii import ascii_cdf
from ..viz.series import Series
from .base import ExperimentResult
from .context import ExperimentContext


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Regenerate this artifact (see module docstring)."""
    stats = ctx.dataset("RegA").columns(
        "servers", ("bursty", "conns_inside", "conns_outside")
    )
    bursty = stats["bursty"] != 0
    conns_inside = stats["conns_inside"]
    conns_outside = stats["conns_outside"]
    inside_arr = conns_inside[bursty & np.isfinite(conns_inside)]
    outside_arr = conns_outside[bursty & np.isfinite(conns_outside)]
    with_ratio = (
        bursty & np.isfinite(conns_inside) & np.isfinite(conns_outside) & (conns_outside > 0)
    )
    ratios = conns_inside[with_ratio] / conns_outside[with_ratio]
    series = []
    for name, values in (("outside-burst", outside_arr), ("inside-burst", inside_arr)):
        x, y = cdf(values)
        series.append(Series(name, x, y))
    metrics = {
        "median_conns_inside": percentile(inside_arr, 50),
        "median_conns_outside": percentile(outside_arr, 50),
        "median_ratio": float(np.median(ratios)),
    }
    rendering = ascii_cdf(
        {"outside-burst": outside_arr, "inside-burst": inside_arr},
        x_label="average number of connections",
        title="Figure 8: connection counts in vs out of bursts (RegA)",
    )
    return ExperimentResult(
        experiment_id="fig8",
        title="Connection counts inside and outside bursts",
        paper_claim=(
            "Connections during a burst exceed connections outside, with a "
            "median difference of 2.7x."
        ),
        series=series,
        metrics=metrics,
        rendering=rendering,
        notes=(
            f"median inside {metrics['median_conns_inside']:.0f} vs outside "
            f"{metrics['median_conns_outside']:.0f}; median ratio "
            f"{metrics['median_ratio']:.1f}x (paper 2.7x)."
        ),
    )
