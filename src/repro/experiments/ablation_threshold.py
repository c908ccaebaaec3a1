"""Ablation: sensitivity of the findings to the burst definition.

The paper defines a burst as samples exceeding 50% of line rate,
"following previous work [Zhang et al. 2017]", arguing traffic below
that rate does not typically result in buffering.  This ablation
re-runs the contention and loss analysis with thresholds of 30%, 50%,
and 70% on the same dataset and checks which conclusions are
threshold-robust: the bimodal rack split, the contended-burst
fraction, and — most importantly — the loss inversion.
"""

from __future__ import annotations

import numpy as np

from ..analysis.streaming import RackProfileAccumulator
from ..analysis.summary import run_rows
from ..fleet.rackrun import RackRunSynthesizer
from ..fleet.shards import RegionDataset
from ..workload.region import REGION_A, build_region_workloads
from .base import ExperimentResult, ResultTable
from .context import ExperimentContext

THRESHOLDS = (0.3, 0.5, 0.7)


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Regenerate this artifact (see module docstring)."""
    # Re-synthesize a compact RegA slice once, then re-analyze the same
    # raw runs under each threshold (the threshold is an analysis
    # parameter, not a generation parameter).
    rng = np.random.default_rng(ctx.fleet.seed + 17)
    racks = max(12, ctx.fleet.racks_per_region // 4)
    workloads = build_region_workloads(REGION_A, racks=racks, rng=rng)
    synthesizer = RackRunSynthesizer()
    raw_runs = [
        synthesizer.synthesize(workload, hour=6, rng=rng).stacked() for workload in workloads
    ]

    rows = []
    metrics: dict[str, float] = {}
    for threshold in THRESHOLDS:
        # One run per rack, so rack ids are run indices.
        dataset = RegionDataset.from_rows(
            REGION_A.name,
            [run_rows(run, threshold=threshold) for run in raw_runs],
            range(len(raw_runs)),
            workloads,
        )
        fold = RackProfileAccumulator(REGION_A.name, dataset.rack_names)
        fold.add_columns(dataset.columns(fold.TABLE, fold.COLUMNS))
        profiles = fold.finalize()
        contention = np.array([p.mean_contention for p in profiles])
        coloc = np.array([p.colocated for p in profiles])

        colocated = dataset.columns("runs", ("colocated",))["colocated"] > 0
        bursts = dataset.columns("bursts", ("run_row", "max_contention", "lossy"))
        burst_coloc = colocated[bursts["run_row"].astype(np.int64)]
        lossy = bursts["lossy"] > 0
        contended = int(np.count_nonzero(bursts["max_contention"] >= 2))
        total = int(lossy.size)
        coloc_lossy_pct = np.mean(lossy[burst_coloc]) * 100 if burst_coloc.any() else 0.0
        spread_lossy_pct = np.mean(lossy[~burst_coloc]) * 100 if (~burst_coloc).any() else 0.0
        gap = (
            contention[coloc].mean() / max(contention[~coloc].mean(), 1e-9)
            if coloc.any() and (~coloc).any()
            else 0.0
        )
        inversion = spread_lossy_pct > coloc_lossy_pct

        label = f"{int(threshold * 100)}pct"
        metrics[f"contended_fraction_{label}"] = contended / max(total, 1)
        metrics[f"contention_gap_{label}"] = float(gap)
        metrics[f"inversion_holds_{label}"] = float(inversion)
        rows.append(
            [
                f"{threshold:.0%}",
                total,
                f"{contended / max(total, 1) * 100:.1f}%",
                f"{gap:.1f}x",
                f"{spread_lossy_pct:.2f}%",
                f"{coloc_lossy_pct:.2f}%",
                "yes" if inversion else "NO",
            ]
        )

    table = ResultTable(
        title="Burst-threshold sensitivity (RegA slice, busy hour)",
        headers=["threshold", "bursts", "contended", "coloc/spread contention",
                 "spread lossy", "coloc lossy", "inversion holds"],
        rows=rows,
    )
    robust = all(metrics[f"inversion_holds_{int(t * 100)}pct"] for t in THRESHOLDS)
    return ExperimentResult(
        experiment_id="ablation-threshold",
        title="Burst-definition sensitivity",
        paper_claim=(
            "The 50%-of-line-rate burst definition follows prior work; the "
            "qualitative findings should not hinge on the exact cut."
        ),
        tables=[table],
        metrics=metrics,
        notes=(
            "Loss inversion holds at every threshold."
            if robust
            else "Loss inversion is threshold-sensitive at this scale."
        ),
    )
