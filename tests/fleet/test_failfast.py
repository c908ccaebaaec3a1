"""Failure semantics of the parallel fan-out substrate.

:func:`repro.fleet.parallel.run_windowed` owns three contracts that the
shard store's parallel build (:meth:`RegionShardStore.build`) and the
query service inherit:

* **fail-fast** — a poisoned rack fails the build after O(window)
  completed build tasks, not O(tasks), surfacing as ``WorkerTaskError``
  that names the failing task's racks;
* **crash containment** — a SIGKILLed worker breaks the pool; an owned
  pool retries the unfinished items exactly once on a fresh pool (and
  the retried store is bit-identical), a second break or an external
  pool raises ``WorkerCrashError``;
* **graceful drain** — a set ``cancel_event`` finishes in-flight work
  only and raises ``WorkerCancelled``.

The kill/poison synthesizers are module-level classes so they pickle
into pool workers; one-shot behaviour lives in sentinel files because
worker processes share no memory with the test.
"""

import dataclasses
import os
import signal

import pytest

from repro.config import FleetConfig
from repro.errors import (
    ConfigError,
    WorkerCancelled,
    WorkerCrashError,
    WorkerTaskError,
)
from repro.fleet import shards
from repro.fleet.parallel import resolve_jobs, run_windowed
from repro.fleet.rackrun import RackRunSynthesizer
from repro.fleet.shards import RegionShardStore
from repro.obs.metrics import Metrics
from repro.workload.region import REGION_A

CONFIG = FleetConfig(racks_per_region=20, runs_per_rack=2, seed=13)
JOBS = 2
WINDOW = 2 * JOBS  # run_windowed's default


class FastSynthesizer(RackRunSynthesizer):
    """Short trimmed runs: enough signal to compare, cheap to generate."""

    def __init__(self) -> None:
        super().__init__(trimmed_buckets_mean=120, trimmed_buckets_std=10)


class PoisonedSynthesizer(FastSynthesizer):
    """Raises for one specific rack, succeeds for every other."""

    def __init__(self, rack: str) -> None:
        super().__init__()
        self.rack = rack

    def synthesize_batch(self, items, metrics=None, reduce=None):
        if any(workload.rack == self.rack for workload, _hour, _rng in items):
            raise RuntimeError(f"poisoned rack {self.rack}")
        return super().synthesize_batch(items, metrics=metrics, reduce=reduce)


class KillSynthesizer(FastSynthesizer):
    """SIGKILLs its worker process for one rack.

    ``once_path`` (optional) makes the kill one-shot across pool
    incarnations: the first worker to reach the rack unlinks the
    sentinel and dies; after the retry the rack synthesizes normally.
    """

    def __init__(self, rack: str, once_path: str | None = None) -> None:
        super().__init__()
        self.rack = rack
        self.once_path = once_path

    def synthesize_batch(self, items, metrics=None, reduce=None):
        if any(workload.rack == self.rack for workload, _hour, _rng in items):
            if self.once_path is None:
                os.kill(os.getpid(), signal.SIGKILL)
            else:
                try:
                    os.unlink(self.once_path)  # atomic claim of the kill
                except FileNotFoundError:
                    pass
                else:
                    os.kill(os.getpid(), signal.SIGKILL)
        return super().synthesize_batch(items, metrics=metrics, reduce=reduce)


def _rack_name(index: int) -> str:
    from repro.fleet.dataset import plan_region

    return plan_region(REGION_A, CONFIG)[index].workload.rack


def _build(root, config=CONFIG, metrics=None, **kwargs) -> dict:
    """A one-rack-per-shard store build over a ``JOBS``-worker pool."""
    store = RegionShardStore(
        root=str(root),
        spec=REGION_A,
        config=config,
        shard_racks=1,
        metrics=metrics if metrics is not None else Metrics(),
    )
    return store.build(jobs=JOBS, **kwargs)


def _hashes(manifest: dict) -> list[dict]:
    return [record["sha256"] for record in manifest["shards"]]


class TestFailFast:
    def test_poisoned_rack_fails_in_window_not_racks(self, tmp_path, monkeypatch):
        # Two-run fluid batches cut the region's 40 runs into 20 build
        # tasks, one rack day each: many more tasks than the window.
        monkeypatch.setattr(shards, "FLUID_BATCH", 2)
        poisoned_index = 2
        metrics = Metrics()
        with pytest.raises(WorkerTaskError) as excinfo:
            _build(
                tmp_path,
                CONFIG,
                synthesizer=PoisonedSynthesizer(_rack_name(poisoned_index)),
                metrics=metrics,
            )
        assert f"rack {poisoned_index} ({_rack_name(poisoned_index)})" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        # The O(window) bound: tasks completed before the failure
        # surfaced is at most the poisoned prefix plus two windows of
        # in-flight slack — nowhere near the 20 tasks of the region.
        completed = metrics.counter("dataset.parallel.tasks")
        assert completed <= poisoned_index + 2 * WINDOW
        assert completed < CONFIG.racks_per_region

    def test_task_error_cancels_queued_work(self):
        handled = []
        with pytest.raises(WorkerTaskError) as excinfo:
            run_windowed(
                list(range(50)),
                lambda executor, item: executor.submit(_fail_on_three, item),
                lambda item, result: handled.append(result),
                jobs=JOBS,
                label=lambda item: f"unit {item}",
            )
        assert excinfo.value.label == "unit 3"
        # The tasks here are near-instant, so completion/handling order is
        # nondeterministic under load and a tight window bound flakes; the
        # O(window) fail-fast bound is pinned deterministically (via the
        # build-task counter) in test_poisoned_rack_fails_in_window_not_racks.
        # Here we pin the cancellation contract: queued work was abandoned,
        # not drained to completion.
        assert len(handled) < 50


class TestCrashContainment:
    def test_worker_kill_retried_once_bit_identical(self, tmp_path):
        sentinel = tmp_path / "kill-once"
        sentinel.write_text("armed")
        config = dataclasses.replace(CONFIG, racks_per_region=6)
        crashed = _build(
            tmp_path / "crashed",
            config,
            synthesizer=KillSynthesizer(_rack_name(3), once_path=str(sentinel)),
        )
        oracle = _build(tmp_path / "oracle", config, synthesizer=FastSynthesizer())
        assert not sentinel.exists()  # the kill actually fired
        assert _hashes(crashed) == _hashes(oracle)

    def test_second_break_raises_worker_crash_error(self, tmp_path):
        config = dataclasses.replace(CONFIG, racks_per_region=6)
        rack = _rack_name(3)
        with pytest.raises(WorkerCrashError) as excinfo:
            _build(tmp_path, config, synthesizer=KillSynthesizer(rack))
        assert rack in " ".join(excinfo.value.suspects)

    def test_external_pool_never_retried(self):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            with pytest.raises(WorkerCrashError):
                run_windowed(
                    list(range(4)),
                    lambda executor, item: executor.submit(_kill_self, item),
                    lambda item, result: None,
                    jobs=1,
                    pool=pool,
                    label=lambda item: f"unit {item}",
                )

    def test_broken_pool_detected_at_submit_time(self):
        """A worker that died while the pool sat idle breaks the pool
        before any future exists; submit-side breakage must surface the
        same structured error, not a raw BrokenProcessPool."""
        import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            pid = pool.submit(os.getpid).result()  # force the worker to spawn
            os.kill(pid, signal.SIGKILL)
            # The executor's management thread marks the pool broken as
            # soon as it sees the dead sentinel; wait for that so the
            # breakage surfaces from submit(), not from a future.
            for _ in range(100):
                if pool._broken:
                    break
                time.sleep(0.05)
            assert pool._broken
            with pytest.raises(WorkerCrashError):
                run_windowed(
                    list(range(4)),
                    lambda executor, item: executor.submit(_identity, item),
                    lambda item, result: None,
                    jobs=1,
                    pool=pool,
                    label=lambda item: f"unit {item}",
                )


class TestGracefulDrain:
    def test_preset_cancel_event_starts_nothing(self):
        import threading

        event = threading.Event()
        event.set()
        handled = []
        with pytest.raises(WorkerCancelled) as excinfo:
            run_windowed(
                list(range(10)),
                lambda executor, item: executor.submit(_identity, item),
                lambda item, result: handled.append(result),
                jobs=JOBS,
                cancel_event=event,
            )
        assert handled == []
        assert "0/10" in str(excinfo.value)

    def test_cancelled_generation_raises(self, tmp_path):
        import threading

        event = threading.Event()
        event.set()
        config = dataclasses.replace(CONFIG, racks_per_region=4)
        with pytest.raises(WorkerCancelled):
            _build(tmp_path, config, synthesizer=FastSynthesizer(), cancel_event=event)
        # Manifest-last: the drained build leaves a miss, not a store.
        store = RegionShardStore(root=str(tmp_path), spec=REGION_A, config=config, shard_racks=1)
        assert store.load_manifest() is None


class TestResolveJobsReserved:
    def test_reserved_only_clamps_auto_mode(self):
        cores = os.cpu_count() or 1
        assert resolve_jobs(0) == max(1, cores)
        assert resolve_jobs(0, reserved=cores + 5) == 1  # floor of one worker
        assert resolve_jobs(4, reserved=2) == 4  # explicit counts untouched

    def test_negative_reserved_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs(0, reserved=-1)


def _identity(item):
    return item


def _fail_on_three(item):
    if item == 3:
        raise ValueError("boom")
    return item


def _kill_self(item):
    os.kill(os.getpid(), signal.SIGKILL)
