"""Exception hierarchy for the reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Invalid configuration value or combination."""


class SamplerError(ReproError):
    """Millisampler lifecycle misuse (e.g. enabling an unattached filter)."""


class SimulationError(ReproError):
    """Discrete-event simulator invariant violation."""


class InvariantViolation(SimulationError):
    """A conservation law the simulator must uphold was broken.

    Raised by :class:`repro.simnet.audit.InvariantAuditor` with the
    structured context needed to localize the miscounted counter:
    which component, which law, what was observed vs expected, and the
    simulated time of the violating event.
    """

    def __init__(
        self,
        component: str,
        law: str,
        observed: object,
        expected: object,
        sim_time: float | None = None,
        detail: str = "",
    ) -> None:
        self.component = component
        self.law = law
        self.observed = observed
        self.expected = expected
        self.sim_time = sim_time
        self.detail = detail
        message = f"[{law}] {component}: observed {observed!r}, expected {expected!r}"
        if sim_time is not None:
            message += f" at t={sim_time:.9f}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class ParallelExecutionError(ReproError):
    """Base class for failures of the process-pool fan-out substrate.

    ``label`` names the unit of work involved (e.g. ``"rack 3 (RegA-
    rack0003)"`` or ``"shard r0000-0064-h00-12"``) so callers — the CLI,
    the query service, tests — can report *which* piece of the region
    failed without parsing the message.
    """

    def __init__(self, label: str, message: str) -> None:
        self.label = label
        super().__init__(message)


class WorkerTaskError(ParallelExecutionError):
    """A worker task raised; the pool was cancelled fail-fast.

    The original exception is chained as ``__cause__``.  Raised on the
    *first* failure: pending work is cancelled immediately instead of
    draining the whole queue, so a crash at rack 3 of 1000 surfaces in
    O(window), not O(racks).
    """

    def __init__(self, label: str, cause: BaseException) -> None:
        super().__init__(
            label,
            f"worker task failed at {label}: {type(cause).__name__}: {cause}",
        )


class WorkerCrashError(ParallelExecutionError):
    """A worker process died abruptly (``BrokenProcessPool``).

    A crashed worker takes the whole ``ProcessPoolExecutor`` with it
    and every in-flight future reports the same breakage, so the exact
    victim is unknowable; ``suspects`` lists the labels of the work
    that was in flight when the pool broke (the first entry is the
    future that reported the break).
    """

    def __init__(self, suspects: list[str], detail: str = "") -> None:
        self.suspects = list(suspects)
        label = self.suspects[0] if self.suspects else "<idle pool>"
        message = (
            f"worker process crashed while running {label}"
            + (f" (also in flight: {', '.join(self.suspects[1:])})" if len(self.suspects) > 1 else "")
        )
        if detail:
            message += f": {detail}"
        super().__init__(label, message)


class WorkerCancelled(ReproError):
    """A pooled generation was drained on request (e.g. SIGTERM).

    In-flight work was allowed to finish; queued work was never
    started.  ``completed`` counts the units that finished before the
    drain."""

    def __init__(self, completed: int, total: int, detail: str = "") -> None:
        self.completed = completed
        self.total = total
        message = f"generation cancelled after {completed}/{total} units; queued work was not started"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class AnalysisError(ReproError):
    """Analysis-pipeline input did not satisfy preconditions."""


class StorageError(ReproError):
    """Host-local run storage failure (corrupt record, missing run)."""


class ManifestError(ReproError):
    """A run manifest does not conform to the documented schema."""
