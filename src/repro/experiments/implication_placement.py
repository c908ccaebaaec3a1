"""Implication experiment: which metric should placement consume?

Section 9: placement can affect buffer contention, but "the fact that
higher contention does not translate to more loss across workloads
indicates the need for more detailed metrics that combine burst
properties and contention".

This experiment scores every RegA rack with three candidate metrics —
per-minute ingress volume (what schedulers see today), average
contention (what SyncMillisampler newly measures), and a combined
burst-risk score (contended, mid-length, high-fan-in burst volume) —
and ranks them by how well they predict the rack's realized lossy-burst
fraction.
"""

from __future__ import annotations

from ..analysis.placement_metrics import (
    SCORE_BURST_COLUMNS,
    SCORE_RUN_COLUMNS,
    rank_correlation,
    score_racks,
)
from .base import ExperimentResult, ResultTable
from .context import ExperimentContext


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Regenerate this artifact (see module docstring)."""
    dataset = ctx.dataset("RegA")
    scores = score_racks(
        dataset.rack_names,
        dataset.columns("runs", SCORE_RUN_COLUMNS),
        dataset.columns("bursts", SCORE_BURST_COLUMNS),
    )
    racks = sorted(scores)
    losses = [scores[r]["realized_loss"] for r in racks]

    rows = []
    metrics = {}
    for candidate in ("volume", "contention", "burst_risk"):
        values = [scores[r][candidate] for r in racks]
        rho = rank_correlation(values, losses)
        metrics[f"spearman_{candidate}"] = rho
        rows.append([candidate, f"{rho:+.3f}"])

    table = ResultTable(
        title="Spearman rank correlation with realized lossy-burst fraction "
              f"({len(racks)} RegA racks)",
        headers=["candidate placement metric", "rank correlation with loss"],
        rows=rows,
    )
    best = max(
        ("volume", "contention", "burst_risk"),
        key=lambda c: metrics[f"spearman_{c}"],
    )
    return ExperimentResult(
        experiment_id="implication-placement",
        title="Placement-metric comparison (Section 9)",
        paper_claim=(
            "Contention only loosely correlates with volume, and loss does "
            "not follow contention across workloads — placement needs a "
            "metric combining burst properties and contention."
        ),
        tables=[table],
        metrics=metrics,
        notes=(
            f"Best predictor of rack loss: {best} "
            f"(rho = {metrics['spearman_' + best]:+.3f}); "
            f"plain contention scores {metrics['spearman_contention']:+.3f} — "
            + (
                "the combined burst/contention metric wins, as Section 9 "
                "anticipates."
                if best == "burst_risk"
                else "at this scale the simpler metric suffices."
            )
        ),
    )
