"""Combined report generation: every experiment into one document.

``millisampler-repro report`` runs the full registry against one shared
context and writes a single markdown report with, per artifact: the
paper's claim, the measured headline metrics, and the rendering —
the machine-generated companion to EXPERIMENTS.md.

Execution goes through :mod:`repro.experiments.orchestrator`, so a
single broken experiment no longer kills the whole report: failures are
recorded, rendered in their own section, and every other artifact still
lands.
"""

from __future__ import annotations

import io

from .base import ExperimentResult, format_metric
from .context import ExperimentContext
from .orchestrator import ExperimentOutcome, OrchestrationResult, run_experiments
from .registry import ordered_ids


def run_all(
    ctx: ExperimentContext,
    experiment_ids: list[str] | None = None,
    progress=None,
) -> dict[str, ExperimentResult]:
    """Run every (or the named) experiments against one context.

    Legacy fail-fast API: the first experiment exception propagates.
    Callers that want isolation and structured outcomes use
    :func:`repro.experiments.orchestrator.run_experiments` directly.
    """
    orchestration = orchestrate(
        ctx, experiment_ids, progress=progress, on_error="raise"
    )
    return orchestration.results


def orchestrate(
    ctx: ExperimentContext,
    experiment_ids: list[str] | None = None,
    progress=None,
    on_error: str = "collect",
    trace_memory: bool = False,
) -> OrchestrationResult:
    """Run the (named or full) registry with outcomes and telemetry.

    ``progress`` keeps the historical ``(experiment_id, seconds)``
    callback shape; ``trace_memory`` is passed to
    :func:`~repro.experiments.orchestrator.run_experiments`.
    """
    ids = experiment_ids or ordered_ids()
    outcome_progress = None
    if progress is not None:
        def outcome_progress(outcome: ExperimentOutcome, _result) -> None:
            progress(outcome.experiment_id, outcome.wall_time_s)
    return run_experiments(
        ctx,
        ids,
        progress=outcome_progress,
        on_error=on_error,
        trace_memory=trace_memory,
    )


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


def write_report(
    ctx: ExperimentContext,
    path: str,
    experiment_ids: list[str] | None = None,
    progress=None,
) -> str:
    """Run and write the combined report; returns the path.

    Failures are isolated: the report always lands, with a failure
    section when experiments broke (inspect the returned file, or run
    :func:`orchestrate` directly for structured outcomes).
    """
    orchestration = orchestrate(ctx, experiment_ids, progress=progress)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_markdown(orchestration.results, ctx, orchestration.outcomes))
    return path
