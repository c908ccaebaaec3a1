"""Fault-isolated experiment orchestration.

``millisampler-repro run all`` drives ~25 experiments; the original
loop was serial and fail-fast, so one broken experiment killed the
whole suite and left no record of what had already run.  The
orchestrator gives every experiment its own failure boundary and
telemetry:

* each experiment produces an :class:`ExperimentOutcome` — status
  (``ok`` / ``failed`` / ``skipped``), wall time, peak memory, shard-
  store traffic, and the result's headline metrics;
* the default memory figure is the process RSS high-water mark (via
  :mod:`resource`), which costs nothing to read.  ``tracemalloc`` is
  opt-in (``trace_memory=True``, the CLI's ``--trace-memory``): its
  allocation hook slows every allocation several-fold, so the
  orchestrator then warms the shared datasets *before* starting it and
  traces each experiment on its own, making the traced peak that
  experiment's analysis and nothing else (worker pools never inherit
  the tracer, see :func:`repro.fleet.parallel.stop_inherited_tracer`);
* a raising experiment is recorded and the suite continues; the caller
  decides the exit code from :attr:`OrchestrationResult.failures`.

Experiments run one at a time, in requested order: they are Python code
that holds the GIL, so threads would not make them faster.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ConfigError
from .base import ExperimentResult
from .context import ExperimentContext
from .registry import EXPERIMENTS, get_experiment

try:  # POSIX-only; outcomes carry None for RSS where unavailable.
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

#: Counter names the shard store records when it opens a region-day
#: (see repro.fleet.shards): a hit reuses a built store, a miss builds
#: one.  Per-experiment deltas become the outcome's cache stats.
CACHE_HIT_COUNTER = "dataset.shards.hit"
CACHE_MISS_COUNTER = "dataset.shards.miss"

#: Regions the shared warm-up generates before a traced run.
WARMUP_REGIONS = ("RegA", "RegB")


@dataclass
class ExperimentOutcome:
    """The structured record of one experiment's execution."""

    experiment_id: str
    status: str  # "ok" | "failed" | "skipped"
    wall_time_s: float = 0.0
    error: str | None = None
    #: tracemalloc traced-allocation peak during the experiment; None
    #: unless the run asked for ``trace_memory`` (the tracer slows every
    #: allocation, so it is opt-in).
    peak_tracemalloc_bytes: int | None = None
    #: Process RSS high-water mark after the experiment (monotonic
    #: per process, so attribution is approximate); None off-POSIX.
    peak_rss_bytes: int | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: The result's headline metrics (empty unless status is "ok").
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class OrchestrationResult:
    """Everything one orchestrated suite run produced."""

    #: One outcome per requested experiment, in requested order.
    outcomes: list[ExperimentOutcome]
    #: Results of the successful experiments, in requested order.
    results: dict[str, ExperimentResult]

    @property
    def failures(self) -> list[ExperimentOutcome]:
        """Every outcome that did not complete (failed or skipped)."""
        return [o for o in self.outcomes if o.status != "ok"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def failure_summary(self) -> str:
        """Terminal-ready summary of every failure (empty string if none)."""
        failures = self.failures
        if not failures:
            return ""
        lines = [f"FAILURES ({len(failures)}/{len(self.outcomes)} experiments):"]
        for outcome in failures:
            lines.append(
                f"  {outcome.experiment_id} [{outcome.status}]: {outcome.error}"
            )
        return "\n".join(lines)


def _peak_rss_bytes() -> int | None:
    """Process RSS high-water mark (Linux reports ru_maxrss in KiB)."""
    if resource is None:
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


def warm_datasets(
    ctx: ExperimentContext, regions: tuple[str, ...] = WARMUP_REGIONS
) -> None:
    """Build (or open) the shared region-day stores once, up front.

    Run before memory tracing starts, so the traced peaks are analysis,
    not generation; afterwards every ``ctx.dataset()`` call is an
    in-memory lookup.
    """
    with ctx.metrics.span("warmup"):
        for region in regions:
            ctx.dataset(region)


def _run_one(
    ctx: ExperimentContext,
    experiment_id: str,
    trace_memory: bool,
) -> tuple[ExperimentOutcome, ExperimentResult | None]:
    """Execute one experiment inside its failure boundary."""
    counters_before = ctx.metrics.counters()
    started_tracing = False
    if trace_memory:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            started_tracing = True
        tracemalloc.reset_peak()
    started = time.perf_counter()
    result: ExperimentResult | None = None
    error: str | None = None
    try:
        # audit_scope installs the context's InvariantAuditor (when
        # --audit is on) around the experiment body *inside* the failure
        # boundary: a conservation-law violation fails that experiment
        # like any other error, and the scope's exit re-verifies global
        # state (occupancy vs in-flight admissions) after a clean run.
        with ctx.audit_scope(), ctx.metrics.span(f"experiment/{experiment_id}"):
            result = get_experiment(experiment_id)(ctx)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall_time = time.perf_counter() - started
    peak_traced: int | None = None
    if trace_memory and tracemalloc.is_tracing():
        peak_traced = tracemalloc.get_traced_memory()[1]
        if started_tracing:
            tracemalloc.stop()
    counters_after = ctx.metrics.counters()

    def delta(name: str) -> int:
        return int(counters_after.get(name, 0) - counters_before.get(name, 0))

    outcome = ExperimentOutcome(
        experiment_id=experiment_id,
        status="ok" if error is None else "failed",
        wall_time_s=wall_time,
        error=error,
        peak_tracemalloc_bytes=peak_traced,
        peak_rss_bytes=_peak_rss_bytes(),
        cache_hits=delta(CACHE_HIT_COUNTER),
        cache_misses=delta(CACHE_MISS_COUNTER),
        metrics=dict(result.metrics) if result is not None else {},
    )
    return outcome, result


def run_experiments(
    ctx: ExperimentContext,
    experiment_ids: list[str],
    progress: Callable[[ExperimentOutcome, ExperimentResult | None], None] | None = None,
    trace_memory: bool = False,
) -> OrchestrationResult:
    """Run experiments one at a time with per-experiment isolation and
    telemetry.

    A failing experiment is recorded and the rest still run.
    ``progress`` is invoked once per experiment, in requested order,
    with the outcome and the result (None on failure).
    ``trace_memory`` records each experiment's ``tracemalloc`` peak.
    """
    unknown = [e for e in experiment_ids if e not in EXPERIMENTS]
    if unknown:
        raise ConfigError(
            f"unknown experiments {unknown}; known: {sorted(EXPERIMENTS)}"
        )
    outcomes: list[ExperimentOutcome] = []
    results: dict[str, ExperimentResult] = {}

    def collect(outcome: ExperimentOutcome, result: ExperimentResult | None) -> None:
        outcomes.append(outcome)
        if result is not None:
            results[outcome.experiment_id] = result
        if progress is not None:
            progress(outcome, result)

    skip_reason: str | None = None
    # Warm up before tracing, so the traced peak is analysis, not
    # generation.
    if trace_memory and any(EXPERIMENTS[e].needs_dataset for e in experiment_ids):
        try:
            warm_datasets(ctx)
        except Exception as exc:
            # The shared datasets cannot be built: every dataset-bound
            # experiment would fail the same way, so skip them with the
            # root cause and still run the standalone experiments.
            skip_reason = f"dataset warm-up failed: {type(exc).__name__}: {exc}"

    for experiment_id in experiment_ids:
        if skip_reason is None or not EXPERIMENTS[experiment_id].needs_dataset:
            collect(*_run_one(ctx, experiment_id, trace_memory))
        else:
            collect(
                ExperimentOutcome(
                    experiment_id=experiment_id,
                    status="skipped",
                    error=skip_reason,
                    peak_rss_bytes=_peak_rss_bytes(),
                ),
                None,
            )
    return OrchestrationResult(outcomes=outcomes, results=results)
