"""Section 7's contention-vs-loss analysis across the buffer-sharing
policy zoo.

The paper's headline Section-7 finding is an *inversion*: RegA-Typical
bursts at contention <= 5 are lossier than RegA-High bursts at much
higher contention, because persistently contended racks host senders
that stay adapted to the buffer.  The paper measures this under the
deployed Choudhury-Hahne dynamic threshold only; ROADMAP item 2 asks
whether the finding is an artifact of DT or a property of the workload.

This experiment replays the full Figure-16 pipeline — dataset
synthesis, burst extraction, per-class contention/loss correlation —
once per registered sharing policy (the same registry ``--policy``
draws from, so a newly registered policy joins the sweep
automatically).  Each policy's region-days are generated under that
policy end to end, into the parent context's shard store, and are
content-addressed by it (the :class:`~repro.config.PolicySpec` feeds
the dataset key in every store directory name), so per-policy datasets
never collide and repeat sweeps reopen their stores.

Scale is capped per policy (the sweep multiplies dataset cost by the
zoo size); the inversion verdict is robust at the capped scale because
it compares aggregates, not per-level curves.
"""

from __future__ import annotations

import dataclasses

from ..config import FleetConfig
from ..fleet.policies import registered_policy_specs
from .base import ExperimentResult, ResultTable
from .context import ExperimentContext
from .fig16_contention_loss import loss_by_contention

#: Per-policy dataset scale caps: the sweep runs the whole generation +
#: analysis pipeline once per registered policy, so it trims the
#: context's scale rather than inheriting report-scale racks.
MAX_RACKS = 24
MAX_RUNS_PER_RACK = 6


def sweep_fleet(fleet: FleetConfig) -> FleetConfig:
    """The capped-scale base config the sweep derives per-policy configs
    from (policy is substituted per sweep arm)."""
    return dataclasses.replace(
        fleet,
        racks_per_region=min(fleet.racks_per_region, MAX_RACKS),
        runs_per_rack=min(fleet.runs_per_rack, MAX_RUNS_PER_RACK),
    )


def inversion_metrics(data: dict[str, dict[int, tuple[int, int]]]) -> dict[str, float]:
    """The Section-7 comparison, computed exactly as Figure 16 does:
    RegA-Typical lossy% at contention <= 5 vs RegA-High lossy% overall."""
    typical_low = [data["RegA-Typical"].get(level, (0, 0)) for level in range(1, 6)]
    low_total = sum(t for t, _ in typical_low)
    low_lossy = sum(l for _, l in typical_low)
    high_all = data["RegA-High"]
    high_total = sum(v[0] for v in high_all.values())
    high_lossy = sum(v[1] for v in high_all.values())
    return {
        "typical_loss_at_contention_le5": (
            low_lossy / low_total * 100 if low_total else 0.0
        ),
        "high_loss_overall": high_lossy / high_total * 100 if high_total else 0.0,
    }


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Regenerate this artifact (see module docstring)."""
    base = sweep_fleet(ctx.fleet)
    rows = []
    metrics: dict[str, float] = {}
    survived = []
    for spec in registered_policy_specs():
        arm = ExperimentContext(
            fleet=dataclasses.replace(base, policy=spec),
            busy_hour=ctx.busy_hour,
            contention_split=ctx.contention_split,
            store_dir=ctx.store_dir,
            shard_racks=ctx.shard_racks,
            shard_hours=ctx.shard_hours,
            metrics=ctx.metrics,
            reserved_cores=ctx.reserved_cores,
            pool=ctx.pool,
            cancel_event=ctx.cancel_event,
        )
        data = loss_by_contention(arm)
        arm_metrics = inversion_metrics(data)
        typical = arm_metrics["typical_loss_at_contention_le5"]
        high = arm_metrics["high_loss_overall"]
        inverted = typical > high
        survived.append((spec.name, inverted))
        total = sum(t for buckets in data.values() for t, _ in buckets.values())
        lossy = sum(l for buckets in data.values() for _, l in buckets.values())
        rows.append(
            [
                spec.name,
                f"{typical:.2f}",
                f"{high:.2f}",
                "yes" if inverted else "no",
                f"{lossy / total * 100 if total else 0.0:.2f}",
            ]
        )
        metrics[f"typical_le5_{spec.name}"] = typical
        metrics[f"high_overall_{spec.name}"] = high
        metrics[f"inversion_{spec.name}"] = 1.0 if inverted else 0.0

    table = ResultTable(
        title=(
            "Section-7 contention-vs-loss inversion per buffer-sharing "
            "policy (RegA-Typical lossy% at contention<=5 vs RegA-High "
            "lossy% overall)"
        ),
        headers=[
            "policy",
            "typical<=5 lossy %",
            "high lossy %",
            "inversion",
            "all-class lossy %",
        ],
        rows=rows,
    )
    surviving = [name for name, inv in survived if inv]
    broken = [name for name, inv in survived if not inv]
    return ExperimentResult(
        experiment_id="policy-sweep",
        title="Contention vs loss across the buffer-sharing policy zoo",
        paper_claim=(
            "The RegA-Typical > RegA-High loss inversion (Section 7) is "
            "measured under Choudhury-Hahne DT; the paper argues its data "
            "'can inform the design of buffer sharing algorithms'."
        ),
        tables=[table],
        metrics=metrics,
        notes=(
            f"Inversion survives under {len(surviving)}/{len(survived)} "
            f"policies ({', '.join(surviving) or 'none'})"
            + (f"; breaks under {', '.join(broken)}" if broken else "")
            + ".  Each policy's datasets are generated under that policy "
            "end to end and content-addressed by its PolicySpec."
        ),
    )
