"""Combined report rendering: every experiment into one document.

``millisampler-repro report`` runs the full registry against one shared
context (:func:`repro.experiments.orchestrator.run_experiments`) and
writes :func:`render_markdown`'s single markdown report with, per
artifact: the paper's claim, the measured headline metrics, and the
rendering — the machine-generated companion to EXPERIMENTS.md.

The orchestrator isolates failures, so a single broken experiment does
not kill the whole report: failures are rendered in their own section,
and every other artifact still lands.
"""

from __future__ import annotations

import io

from .base import ExperimentResult, format_metric
from .context import ExperimentContext
from .orchestrator import ExperimentOutcome


def render_markdown(
    results: dict[str, ExperimentResult],
    ctx: ExperimentContext,
    outcomes: list[ExperimentOutcome] | None = None,
) -> str:
    """One markdown document covering every result.

    ``outcomes`` (from an orchestrated run) adds per-experiment wall
    times to the summary table and a failure section listing every
    experiment that did not complete.
    """
    by_id = {o.experiment_id: o for o in (outcomes or [])}
    buffer = io.StringIO()
    buffer.write("# Millisampler reproduction report\n\n")
    buffer.write(
        f"Generated from the synthetic dataset: "
        f"{ctx.fleet.racks_per_region} racks/region x "
        f"{ctx.fleet.runs_per_rack} runs/rack, seed {ctx.fleet.seed}.\n\n"
    )
    failed = [o for o in (outcomes or []) if o.status != "ok"]
    if failed:
        buffer.write("## Failures\n\n")
        buffer.write(
            f"{len(failed)} of {len(outcomes or [])} experiments did not complete:\n\n"
        )
        for outcome in failed:
            buffer.write(f"- `{outcome.experiment_id}` ({outcome.status}): "
                         f"{outcome.error}\n")
        buffer.write("\n")
    buffer.write("## Summary\n\n")
    buffer.write("| experiment | title | headline |\n|---|---|---|\n")
    for experiment_id, result in results.items():
        headline = result.notes.split(";")[0].split(".")[0][:110] if result.notes else ""
        buffer.write(f"| `{experiment_id}` | {result.title} | {headline} |\n")

    for experiment_id, result in results.items():
        buffer.write(f"\n---\n\n## {experiment_id}: {result.title}\n\n")
        buffer.write(f"**Paper:** {result.paper_claim}\n\n")
        outcome = by_id.get(experiment_id)
        if outcome is not None:
            buffer.write(f"*Completed in {outcome.wall_time_s:.1f}s.*\n\n")
        if result.notes:
            buffer.write(f"**Measured:** {result.notes}\n\n")
        for table in result.tables:
            buffer.write("```\n" + table.render() + "\n```\n\n")
        if result.metrics:
            buffer.write("<details><summary>metrics</summary>\n\n```\n")
            for name, value in sorted(result.metrics.items()):
                buffer.write(
                    f"{name} = {format_metric(experiment_id, name, value)}\n"
                )
            buffer.write("```\n</details>\n")
    return buffer.getvalue()
