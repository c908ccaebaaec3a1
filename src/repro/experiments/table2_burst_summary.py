"""Table 2: burst summary per rack class.

Paper:

=============  =========  ===========  =======
Class          # bursts   % contended  % lossy
=============  =========  ===========  =======
RegA-Typical   10.2M      70.9%        1.05%
RegA-High      9.3M       100%         0.36%
RegB           23.9M      96.8%        0.78%
=============  =========  ===========  =======

Plus the headline aggregates: RegA-High holds 20% of racks but 47.8%
of RegA bursts; 91.4% of all bursts experience contention; and the
surprise — RegA-Typical is 2.9x lossier than RegA-High.
"""

from __future__ import annotations

import numpy as np

from .base import ExperimentResult, ResultTable
from .context import ExperimentContext

PAPER = {
    "RegA-Typical": dict(contended=70.9, lossy=1.05),
    "RegA-High": dict(contended=100.0, lossy=0.36),
    "RegB": dict(contended=96.8, lossy=0.78),
}


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Regenerate this artifact (see module docstring)."""
    totals: dict[str, list[int]] = {}  # bursts, contended, lossy
    for region in ("RegA", "RegB"):
        bursts = ctx.dataset(region).columns(
            "bursts", ("rack_id", "max_contention", "lossy")
        )
        if region == "RegA":
            high = ctx.rega_high_mask(bursts["rack_id"])
            classes = {"RegA-Typical": ~high, "RegA-High": high}
        else:
            classes = {"RegB": np.ones(bursts["rack_id"].size, dtype=bool)}
        is_contended = bursts["max_contention"] >= 2
        is_lossy = bursts["lossy"] != 0
        for name, in_class in classes.items():
            totals[name] = [
                int(np.count_nonzero(in_class)),
                int(np.count_nonzero(in_class & is_contended)),
                int(np.count_nonzero(in_class & is_lossy)),
            ]

    rows = []
    metrics = {}
    for name in ("RegA-Typical", "RegA-High", "RegB"):
        bursts, contended, lossy = totals.get(name, [0, 0, 0])
        contended_pct = contended / bursts * 100 if bursts else 0.0
        lossy_pct = lossy / bursts * 100 if bursts else 0.0
        rows.append(
            [
                name, bursts, f"{contended_pct:.1f}%", f"{lossy_pct:.2f}%",
                f"{PAPER[name]['contended']:.1f}%", f"{PAPER[name]['lossy']:.2f}%",
            ]
        )
        metrics[f"bursts_{name}"] = float(bursts)
        metrics[f"contended_pct_{name}"] = contended_pct
        metrics[f"lossy_pct_{name}"] = lossy_pct

    rega_total = metrics["bursts_RegA-Typical"] + metrics["bursts_RegA-High"]
    metrics["rega_high_burst_share"] = (
        metrics["bursts_RegA-High"] / rega_total if rega_total else 0.0
    )
    all_bursts = sum(v[0] for v in totals.values())
    all_contended = sum(v[1] for v in totals.values())
    metrics["overall_contended_pct"] = (
        all_contended / all_bursts * 100 if all_bursts else 0.0
    )
    metrics["loss_inversion_ratio"] = (
        metrics["lossy_pct_RegA-Typical"] / metrics["lossy_pct_RegA-High"]
        if metrics["lossy_pct_RegA-High"] > 0
        else float("inf")
    )

    table = ResultTable(
        title="Table 2: bursts per rack class (measured vs paper)",
        headers=["Class", "# bursts", "% contended", "% lossy",
                 "paper contended", "paper lossy"],
        rows=rows,
    )
    return ExperimentResult(
        experiment_id="table2",
        title="Burst summary by rack class",
        paper_claim=(
            "RegA-High: 20% of racks, 47.8% of bursts, all contended, "
            "0.36% lossy; RegA-Typical 70.9% contended but 1.05% lossy "
            "(2.9x more); RegB 96.8% contended, 0.78% lossy; 91.4% of all "
            "bursts contended."
        ),
        tables=[table],
        metrics=metrics,
        notes=(
            f"RegA-High burst share {metrics['rega_high_burst_share'] * 100:.1f}% "
            f"(paper 47.8%); overall contended "
            f"{metrics['overall_contended_pct']:.1f}% (91.4%); loss inversion "
            f"{metrics['loss_inversion_ratio']:.1f}x (2.9x)."
        ),
    )
