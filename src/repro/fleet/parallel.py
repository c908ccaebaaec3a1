"""Process-pool fan-out for region-day synthesis.

Dataset generation is embarrassingly parallel once every (rack, run)
pair owns an independent seed stream (see the seeding notes in
:mod:`repro.fleet.dataset`): each worker synthesizes one build task — a
slice of the region's run stream, one fluid batch
(:class:`~repro.fleet.shards.BuildTask`) — and reduces its runs to
float64 table rows before returning (:func:`_build_task`), so peak
memory stays one fluid batch per worker and only plain arrays cross the
process boundary.

Determinism is structural, not incidental — workers never share RNG
state, and the shard store files every row under its position in the
run stream — so a store is byte-identical for any job count.

:func:`run_windowed` is the fan-out substrate the shard store's
parallel build runs on (the query service injects its persistent pool
there).  It owns the failure semantics a long-lived process needs:

* **fail-fast** — the first task exception cancels everything still
  queued and surfaces as :class:`~repro.errors.WorkerTaskError` naming
  the failing unit, so a crash at task 3 of 1000 costs O(window) work,
  not O(tasks);
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

import numpy as np

from ..config import FleetConfig
from ..errors import ConfigError, WorkerCancelled, WorkerCrashError, WorkerTaskError
from ..obs.metrics import Metrics
from .rackrun import RackRunSynthesizer
from .shards import BuildTask, task_tables

T = TypeVar("T")


def stop_inherited_tracer() -> None:
    """Worker-pool ``initializer``: stop a ``tracemalloc`` tracer the
    worker inherited at fork.  Its allocation hook would tax every numpy
    temporary of the fluid loop, while the parent never reads a child's
    traced memory.  Every pool :func:`run_windowed` owns, and the query
    service's pool, install it."""
    # Imported here so only pool workers load it: the import alone
    # shifts glibc's heap layout enough to move the packet simulator's
    # peak RSS by ~70 MB (malloc's dynamic mmap threshold).
    import tracemalloc

    if tracemalloc.is_tracing():
        tracemalloc.stop()


def resolve_jobs(jobs: int, reserved: int = 0) -> int:
    """Resolve a ``--jobs`` value: 0 means every available core.

    ``reserved`` subtracts cores already committed elsewhere from the
    auto-detected count — the query service passes its active request
    thread count so a persistent pool plus its request threads cannot
    double-subscribe the machine.  An *explicit* job
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
    label: Callable[[T], str] = repr,
    pool: Executor | None = None,
    cancel_event: threading.Event | None = None,
) -> int:
    """Fan ``items`` out over a process pool with a shallow window.

    ``submit(executor, item)`` starts one unit of work and returns its
    future; ``handle(item, result)`` consumes each result in completion
    order.  At most ``2 * jobs`` futures are in flight, so a huge region
    never has every task pickled and queued at once.  Returns the number
    of items handled.

    When ``pool`` is None the substrate creates and owns a
    ``ProcessPoolExecutor`` whose workers stop any inherited tracer
    (:func:`stop_inherited_tracer`); passing an executor (the service's
    persistent pool) reuses it, in which case a broken pool is *not*
    retried here: the pool's owner decides how to replace it, and what
    its workers run at fork.

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
    window = 2 * jobs

    completed = 0
    pending: deque[int] = deque(range(total))
    retried = False

    def retry_or_raise(index: int, exc: BrokenProcessPool) -> BrokenProcessPool:
        """Requeue every unfinished item for one retry on a fresh owned
        pool, or raise :class:`WorkerCrashError` naming the suspects."""
        nonlocal pending, retried
        if owned is not None and not retried:
            retried = True
            pending = deque(sorted((index, *in_flight.values(), *pending)))
            return exc
        suspects = [label(items[index])] + [
            label(items[i]) for i in sorted(in_flight.values())
        ]
        raise WorkerCrashError(suspects, detail=str(exc)) from exc

    while pending:
        owned: ProcessPoolExecutor | None = None
        executor = pool
        if executor is None:
            owned = ProcessPoolExecutor(
                max_workers=min(jobs, len(pending)), initializer=stop_inherited_tracer
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
                        retry_break = retry_or_raise(index, exc)
                        break
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
                        retry_break = retry_or_raise(index, exc)
                        break
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


def _build_task(
    task: BuildTask, config: FleetConfig, synthesizer: RackRunSynthesizer | None
) -> tuple[dict[str, np.ndarray], dict]:
    """Top-level worker entry point (must be picklable): one build task's
    table rows (:func:`~repro.fleet.shards.task_tables`).

    Stage timers (demand/fluid/assemble/summarize) are recorded into a
    worker-local registry and returned as a snapshot so the parent can
    merge them; telemetry crosses the process boundary as plain data,
    never as shared state.
    """
    worker_metrics = Metrics()
    tables = task_tables(task, config, synthesizer, worker_metrics)
    return tables, worker_metrics.snapshot()
