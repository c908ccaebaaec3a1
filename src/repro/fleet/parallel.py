"""Process-pool fan-out for region-day synthesis.

Dataset generation is embarrassingly parallel once every (rack, run)
pair owns an independent seed stream (see the seeding notes in
:mod:`repro.fleet.dataset`): each worker synthesizes whole rack days
and reduces every raw run to its :class:`RunSummary` before returning,
so peak memory stays one raw rack run per worker and only the small
summaries cross the process boundary.

Determinism is structural, not incidental — workers never share RNG
state, and results are reassembled in rack order — so a region-day is
byte-identical for any job count.

:func:`run_windowed` is the shared fan-out substrate (also used by the
shard store and the query service).  It owns the failure semantics a
long-lived process needs:

* **fail-fast** — the first task exception cancels everything still
  queued and surfaces as :class:`~repro.errors.WorkerTaskError` naming
  the failing unit, so a crash at rack 3 of 1000 costs O(window) work,
  not O(racks);
* **crash containment** — a worker process dying abruptly
  (``BrokenProcessPool``) is retried once on a fresh pool when the
  substrate owns the pool (transient death: OOM kill, stray signal);
  a second break raises :class:`~repro.errors.WorkerCrashError` listing
  the in-flight suspects;
* **graceful drain** — a ``cancel_event`` stops new submissions,
  lets in-flight work finish, and raises
  :class:`~repro.errors.WorkerCancelled` (the service's SIGTERM path).
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence, TypeVar

from ..analysis.summary import RunSummary
from ..config import FleetConfig
from ..errors import ConfigError, WorkerCancelled, WorkerCrashError, WorkerTaskError
from ..obs.metrics import Metrics
from ..workload.region import RegionSpec
from .dataset import RackRunPlan, RegionDataset, plan_region, synthesize_rack_day
from .kernels import consume_pending, pool_initializer
from .rackrun import RackRunSynthesizer

T = TypeVar("T")


def resolve_jobs(jobs: int, reserved: int = 0) -> int:
    """Resolve a ``--jobs`` value: 0 means every available core.

    ``reserved`` subtracts cores already committed elsewhere from the
    auto-detected count — the query service passes its active request
    thread count so a persistent pool plus ``--exp-jobs`` style thread
    fan-out cannot double-subscribe the machine.  An *explicit* job
    count is honored as given (the caller said exactly what they want);
    only the ``0 = everything`` auto mode is clamped.  At least one
    worker always survives the clamp.
    """
    if jobs < 0:
        raise ConfigError("jobs cannot be negative")
    if reserved < 0:
        raise ConfigError("reserved core count cannot be negative")
    if jobs == 0:
        return max(1, (os.cpu_count() or 1) - reserved)
    return jobs


def run_windowed(
    items: Sequence[T],
    submit: Callable[[Executor, T], Future],
    handle: Callable[[T, Any], None],
    *,
    jobs: int = 1,
    window: int | None = None,
    label: Callable[[T], str] = repr,
    pool: Executor | None = None,
    retry_broken: bool = True,
    cancel_event: threading.Event | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> int:
    """Fan ``items`` out over a process pool with a shallow window.

    ``submit(executor, item)`` starts one unit of work and returns its
    future; ``handle(item, result)`` consumes each result in completion
    order.  At most ``window`` (default ``2 * jobs``) futures are in
    flight, so a huge region never has every task pickled and queued at
    once.  Returns the number of items handled.

    When ``pool`` is None the substrate creates and owns a
    ``ProcessPoolExecutor`` (``initializer``/``initargs`` run in each
    worker at fork — kernel JIT warm-up lives there); passing an
    executor (the service's persistent pool) reuses it, in which case a
    broken pool is *not* retried here — the pool's owner decides how to
    replace it — and the initializer is the pool owner's business.

    Failure semantics (see the module docstring): first task exception
    → cancel queued work, raise :class:`WorkerTaskError`; broken pool →
    one retry of the unfinished items on a fresh owned pool, then
    :class:`WorkerCrashError`; ``cancel_event`` set → drain in-flight
    work, raise :class:`WorkerCancelled`.
    """
    items = list(items)
    total = len(items)
    if total == 0:
        return 0
    jobs = resolve_jobs(jobs)
    if window is None:
        window = 2 * jobs
    if window < 1:
        raise ConfigError("window must admit at least one in-flight task")

    completed = 0
    pending: deque[int] = deque(range(total))
    retried = False
    while pending:
        owned: ProcessPoolExecutor | None = None
        executor = pool
        if executor is None:
            owned = ProcessPoolExecutor(
                max_workers=min(jobs, len(pending)),
                initializer=initializer,
                initargs=initargs,
            )
            executor = owned
        in_flight: dict[Future, int] = {}
        drained = False
        retry_break: BrokenProcessPool | None = None
        try:
            while in_flight or (pending and not drained):
                if cancel_event is not None and cancel_event.is_set():
                    drained = True
                while pending and not drained and len(in_flight) < window:
                    index = pending.popleft()
                    try:
                        future = submit(executor, items[index])
                    except BrokenProcessPool as exc:
                        # A worker that died while the pool was idle (or
                        # between windows) breaks the pool before any
                        # future exists; same contract as a broken
                        # in-flight future.
                        unfinished = sorted((index, *in_flight.values(), *pending))
                        if owned is not None and retry_broken and not retried:
                            retried = True
                            pending = deque(unfinished)
                            retry_break = exc
                            break
                        suspects = [label(items[index])] + [
                            label(items[i]) for i in sorted(in_flight.values())
                        ]
                        raise WorkerCrashError(suspects, detail=str(exc)) from exc
                    in_flight[future] = index
                if retry_break is not None:
                    break
                if not in_flight:
                    break
                finished, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
                for future in finished:
                    index = in_flight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        # Every in-flight future reports the same pool
                        # breakage; the true victim is unknowable, so
                        # collect every suspect before deciding.
                        unfinished = sorted((index, *in_flight.values(), *pending))
                        if owned is not None and retry_broken and not retried:
                            retried = True
                            pending = deque(unfinished)
                            retry_break = exc
                            break
                        suspects = [label(items[index])] + [
                            label(items[i]) for i in sorted(in_flight.values())
                        ]
                        raise WorkerCrashError(suspects, detail=str(exc)) from exc
                    except Exception as exc:
                        raise WorkerTaskError(label(items[index]), exc) from exc
                    handle(items[index], result)
                    completed += 1
                if retry_break is not None:
                    break
        finally:
            if owned is not None:
                # cancel_futures drops everything still queued — the
                # fail-fast half of the contract; wait=False lets the
                # raising path return after at most one in-flight task
                # per worker.
                owned.shutdown(wait=False, cancel_futures=True)
            else:
                for future in in_flight:
                    future.cancel()
        if retry_break is not None:
            continue  # fresh owned pool for the unfinished items
        if drained and pending:
            raise WorkerCancelled(completed, total)
        pending.clear()
    return completed


def _rack_day_task(
    plan: RackRunPlan, config: FleetConfig, synthesizer: RackRunSynthesizer | None
) -> tuple[list[RunSummary], dict]:
    """Top-level worker entry point (must be picklable).

    Stage timers (demand/fluid/assemble/summarize) are recorded into a
    worker-local registry and returned as a snapshot so the parent can
    merge them; telemetry crosses the process boundary as plain data,
    never as shared state.
    """
    worker_metrics = Metrics()
    consume_pending(worker_metrics)  # pool-initializer JIT compile time
    summaries = synthesize_rack_day(plan, config, synthesizer, metrics=worker_metrics)
    return summaries, worker_metrics.snapshot()


def _plan_label(plan: RackRunPlan) -> str:
    return f"rack {plan.rack_index} ({plan.workload.rack})"


def generate_region_dataset_parallel(
    spec: RegionSpec,
    config: FleetConfig,
    jobs: int,
    synthesizer: RackRunSynthesizer | None = None,
    progress: Callable[[int, int], None] | None = None,
    metrics: Metrics | None = None,
    pool: Executor | None = None,
    cancel_event: threading.Event | None = None,
) -> RegionDataset:
    """Generate one region-day with ``jobs`` worker processes.

    Produces exactly the same :class:`RegionDataset` as the serial path
    in :func:`repro.fleet.dataset.generate_region_dataset`.  ``metrics``
    stays in the parent process (only plans and results cross the
    process boundary); it records the fan-out span and per-rack-day
    task counts.

    Failure semantics come from :func:`run_windowed`: fail-fast
    :class:`WorkerTaskError` naming the failing rack, retry-once then
    :class:`WorkerCrashError` on worker death, graceful-drain
    :class:`WorkerCancelled` via ``cancel_event``.
    """
    jobs = resolve_jobs(jobs)
    metrics = metrics if metrics is not None else Metrics()
    plans = plan_region(spec, config)
    if not plans:
        # A region that plans zero racks is a valid degenerate scale;
        # ProcessPoolExecutor(max_workers=0) would raise, so short-circuit
        # to the same empty dataset the serial path returns.
        metrics.incr("dataset.generated_runs", 0)
        return RegionDataset(region=spec.name, summaries=[], workloads=[])
    total = sum(len(plan.hours) for plan in plans)
    per_rack: list[list[RunSummary] | None] = [None] * len(plans)
    progress_done = 0

    def handle(plan: RackRunPlan, result: tuple[list[RunSummary], dict]) -> None:
        nonlocal progress_done
        summaries, snapshot = result
        per_rack[plan.rack_index] = summaries
        progress_done += len(summaries)
        metrics.incr("dataset.parallel.rack_days")
        metrics.merge(snapshot)
        if progress is not None:
            progress(progress_done, total)

    with metrics.span(f"generate/{spec.name}"):
        run_windowed(
            plans,
            lambda executor, plan: executor.submit(
                _rack_day_task, plan, config, synthesizer
            ),
            handle,
            jobs=jobs,
            window=2 * jobs,
            label=_plan_label,
            pool=pool,
            cancel_event=cancel_event,
            initializer=pool_initializer,
            initargs=(config.kernel,),
        )
    summaries = [summary for rack in per_rack for summary in (rack or [])]
    metrics.incr("dataset.generated_runs", len(summaries))
    return RegionDataset(
        region=spec.name,
        summaries=summaries,
        workloads=[plan.workload for plan in plans],
    )
