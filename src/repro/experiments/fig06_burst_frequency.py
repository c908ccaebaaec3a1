"""Figure 6 + Section 6 text statistics: burst frequency and utilization.

CDF of bursts-per-second across bursty server runs (paper: median 7.5,
p90 39.8), plus the section's supporting numbers: fraction of server
runs that are bursty (34%), fraction of ingress bytes inside bursts
(49.7%), and in-burst / outside-burst utilization medians (65.5% /
5.5%).
"""

from __future__ import annotations

import numpy as np

from ..analysis.stats import cdf, percentile, running_sum
from ..viz.ascii import ascii_cdf
from ..viz.series import Series
from .base import ExperimentResult
from .context import ExperimentContext


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Regenerate this artifact (see module docstring)."""
    stats = ctx.dataset("RegA").columns(
        "servers",
        (
            "bursty",
            "bursts_per_second",
            "avg_utilization",
            "utilization_in_bursts",
            "utilization_outside_bursts",
            "total_in_bytes",
            "in_burst_bytes",
        ),
    )
    bursty = stats["bursty"] != 0
    in_util = stats["utilization_in_bursts"]
    out_util = stats["utilization_outside_bursts"]
    in_util = in_util[bursty & np.isfinite(in_util)]
    out_util = out_util[bursty & np.isfinite(out_util)]
    run_avg_util = stats["avg_utilization"][bursty]
    total_bytes = running_sum(stats["total_in_bytes"])
    burst_bytes = running_sum(stats["in_burst_bytes"])
    bursty_runs = int(np.count_nonzero(bursty))
    server_runs = int(bursty.size)

    freq = stats["bursts_per_second"][bursty]
    x, y = cdf(freq)
    series = [Series("bursts-per-second", x, y)]
    metrics = {
        "median_bursts_per_sec": percentile(freq, 50),
        "p90_bursts_per_sec": percentile(freq, 90),
        "bursty_server_run_fraction": bursty_runs / server_runs,
        "burst_byte_fraction": burst_bytes / total_bytes if total_bytes else 0.0,
        "median_run_avg_utilization": float(np.median(run_avg_util)),
        "p95_run_avg_utilization": float(np.percentile(run_avg_util, 95)),
        "median_in_burst_utilization": float(np.median(in_util)),
        "median_outside_burst_utilization": float(np.median(out_util)),
    }
    rendering = ascii_cdf(
        {"bursts/sec": freq},
        x_label="frequency of bursts (per sec)",
        title="Figure 6: burst frequency per bursty server run (RegA)",
    )
    return ExperimentResult(
        experiment_id="fig6",
        title="Burst frequency in a run",
        paper_claim=(
            "Median bursty run sees 7.5 bursts/s, p90 39.8; 34% of server "
            "runs are bursty; 49.7% of ingress bytes travel in bursts; "
            "median utilization 65.5% inside bursts vs 5.5% outside."
        ),
        series=series,
        metrics=metrics,
        rendering=rendering,
        notes=(
            f"median {metrics['median_bursts_per_sec']:.1f} bursts/s "
            f"(paper 7.5), p90 {metrics['p90_bursts_per_sec']:.1f} (39.8); "
            f"{metrics['bursty_server_run_fraction'] * 100:.0f}% of server runs "
            f"bursty (34%); {metrics['burst_byte_fraction'] * 100:.0f}% of bytes "
            f"in bursts (49.7%); utilization in/out "
            f"{metrics['median_in_burst_utilization'] * 100:.0f}%/"
            f"{metrics['median_outside_burst_utilization'] * 100:.1f}% (65.5/5.5)."
        ),
    )
