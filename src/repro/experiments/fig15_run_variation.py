"""Figure 15: within-run contention variation and its buffer impact.

For each run: the minimum contention (over samples with at least one
active server) and the p90 contention, sorted by minimum; and the
corresponding dynamic-threshold buffer shares.  Paper: 6.2% of runs
excluded (p90 = 0); the median run's buffer share drops 33.3% from its
peak, and 15% of runs drop >= 70%.
"""

from __future__ import annotations

import numpy as np

from ..analysis.contention import buffer_share, buffer_share_drop
from ..viz.ascii import ascii_plot
from ..viz.series import Series
from .base import ExperimentResult
from .context import ExperimentContext


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Regenerate this artifact (see module docstring)."""
    # Per-run contention in global run order, read shard by shard.
    view = ctx.run_contention("RegA")
    excluded = view.excluded

    mins = view.mins
    p90s = view.p90s
    # The p90 is taken over *all* samples (zeros included) with linear
    # interpolation, so on a mostly-idle run it can land fractionally
    # below the minimum over active samples; the buffer-share drop of
    # such a run is zero.
    p90s = np.maximum(p90s, mins)
    order = np.lexsort((p90s, mins))
    mins = mins[order]
    p90s = p90s[order]
    run_ids = np.arange(len(mins), dtype=float)

    share_min = np.array([buffer_share(m) * 100 for m in mins])
    share_p90 = np.array([buffer_share(p) * 100 for p in p90s])
    drops = np.array(
        [buffer_share_drop(m, p) for m, p in zip(mins, p90s)]
    )

    series = [
        Series("min-contention", run_ids, mins),
        Series("p90-contention", run_ids, p90s),
        Series("share-at-min", run_ids, share_min),
        Series("share-at-p90", run_ids, share_p90),
    ]
    metrics = {
        "excluded_fraction": excluded / view.total if view.total else 0.0,
        "median_share_drop": float(np.median(drops)),
        "frac_drop_ge_70pct": float((drops >= 0.70).mean()),
        "median_min_contention": float(np.median(mins)),
        "median_p90_contention": float(np.median(p90s)),
    }
    rendering = "\n\n".join(
        [
            ascii_plot(
                run_ids,
                {"min": mins, "p90": p90s},
                x_label="run id (sorted)",
                y_label="contention",
                title="Figure 15a: min and p90 contention per run (RegA)",
                height=12,
            ),
            ascii_plot(
                run_ids,
                {"share@min": share_min, "share@p90": share_p90},
                x_label="run id (sorted)",
                y_label="queue share (% of buffer)",
                title="Figure 15b: buffer share at min vs p90 contention",
                height=12,
            ),
        ]
    )
    return ExperimentResult(
        experiment_id="fig15",
        title="Within-run contention variation and buffer share",
        paper_claim=(
            "6.2% of runs have zero p90 contention and are excluded; the "
            "median run's per-queue buffer share drops 33.3% between its "
            "calmest and p90 contention; for 15% of runs the drop is >=70%."
        ),
        series=series,
        metrics=metrics,
        rendering=rendering,
        notes=(
            f"excluded {metrics['excluded_fraction'] * 100:.1f}% of runs "
            f"(paper 6.2%); median share drop "
            f"{metrics['median_share_drop'] * 100:.1f}% (33.3%); drop >=70% for "
            f"{metrics['frac_drop_ge_70pct'] * 100:.1f}% of runs (15%)."
        ),
    )
