"""Kernel selection and warm-up for the native fluid time loop.

The package owns the execution-only ``kernel`` axis
(:data:`repro.config.KERNEL_CHOICES`):

* :func:`resolve_kernel` maps a requested setting (``auto`` / ``numpy``
  / ``native``) to the kernel that will actually run, degrading to
  numpy — with a logged warning and a staged obs counter, never an
  ImportError — when numba is unavailable;
* :func:`warm_kernels` forces JIT compilation once per process (timed
  under :data:`COMPILE_SECONDS_COUNTER`) so the first real rack is
  never silently JIT-stalled;
* :func:`pool_initializer` is the picklable hook worker pools run at
  fork so the warm-up happens in every worker, not the parent (it also
  stops any ``tracemalloc`` tracer the worker inherited);
* :func:`consume_pending` drains counters staged where no
  :class:`~repro.obs.metrics.Metrics` was in scope (import time,
  pool initializers) into the caller's metrics.
"""

from __future__ import annotations

import logging

import numpy as np

from ...config import KERNEL_CHOICES
from ...errors import ConfigError
from ._numba import NATIVE_AVAILABLE, NUMBA_IMPORT_ERROR

__all__ = [
    "KERNEL_CHOICES",
    "NATIVE_AVAILABLE",
    "NUMBA_IMPORT_ERROR",
    "COMPILE_SECONDS_COUNTER",
    "WARMUP_COUNTER",
    "NATIVE_UNAVAILABLE_COUNTER",
    "POLICY_FALLBACK_COUNTER",
    "resolve_kernel",
    "warm_kernels",
    "pool_initializer",
    "consume_pending",
]

_LOG = logging.getLogger("repro.fleet.kernels")

#: Seconds spent JIT-compiling the native kernel in this process.
COMPILE_SECONDS_COUNTER = "kernel.compile_s"
#: Number of processes that warmed the native kernel.
WARMUP_COUNTER = "kernel.warmups"
#: Explicit ``kernel=native`` request degraded to numpy because numba
#: is unavailable (``auto`` probes silently and never stages this).
NATIVE_UNAVAILABLE_COUNTER = "kernel.native_unavailable"
#: Native kernel selected but the run's policy has no native limit
#: rule, so the model fell back to the numpy path.
POLICY_FALLBACK_COUNTER = "kernel.fallback.policy"

# Counters staged outside any Metrics scope, drained by
# consume_pending().  Plain module state: each process stages and
# drains its own.
_pending: dict[str, float] = {}

_warned_unavailable = False
_warmed = False


def _stage(name: str, value: float = 1.0) -> None:
    _pending[name] = _pending.get(name, 0.0) + value


if not NATIVE_AVAILABLE:
    _LOG.debug("numba unavailable, native kernel disabled: %s", NUMBA_IMPORT_ERROR)


def consume_pending(metrics) -> None:
    """Drain counters staged outside a metrics scope into ``metrics``."""
    if not _pending:
        return
    for name, value in _pending.items():
        metrics.incr(name, value)
    _pending.clear()


def resolve_kernel(requested: str) -> str:
    """Map a requested kernel setting to the kernel that will run.

    Returns ``"numpy"`` or ``"native"``.  ``auto`` probes numba
    silently; an explicit ``native`` request without numba warns once
    per process (and stages :data:`NATIVE_UNAVAILABLE_COUNTER`) before
    degrading, so a misconfigured fleet is visible but never broken.
    """
    global _warned_unavailable
    if requested not in KERNEL_CHOICES:
        raise ConfigError(
            f"kernel must be one of {KERNEL_CHOICES}, got {requested!r}"
        )
    if requested == "numpy":
        return "numpy"
    if NATIVE_AVAILABLE:
        return "native"
    if requested == "native" and not _warned_unavailable:
        _warned_unavailable = True
        _stage(NATIVE_UNAVAILABLE_COUNTER)
        _LOG.warning(
            "kernel=native requested but numba is unavailable (%s); "
            "falling back to the numpy kernel",
            NUMBA_IMPORT_ERROR,
        )
    return "numpy"


def warm_kernels(metrics=None) -> float:
    """Force JIT compilation of the native kernel; returns the compile
    time in seconds (0.0 when already warm or numba is absent).

    Idempotent per process.  Runs one tiny end-to-end
    :func:`~repro.fleet.kernels.fluid.fluid_run_batch` call — the
    policy id is a runtime value, so a single call compiles the
    dispatch for every registered policy.  Compile time is staged
    under :data:`COMPILE_SECONDS_COUNTER` (or recorded directly when
    ``metrics`` is passed).
    """
    global _warmed
    if _warmed or not NATIVE_AVAILABLE:
        return 0.0
    import time

    from . import fluid

    start = time.perf_counter()
    fluid.fluid_run_batch(
        demand=np.zeros((1, 2, 1)),
        gap_steps=np.ones(1),
        initial_multiplier=np.ones(1),
        initial_alpha=np.zeros(1),
        quadrant=np.zeros(1, dtype=np.int64),
        params=np.zeros(fluid.MAX_POLICY_PARAMS),
        consts=_warmup_consts(),
        iconsts=np.array([1, 1, fluid.POLICY_DYNAMIC_THRESHOLD], dtype=np.int64),
        windows_per_step=1.0,
    )
    elapsed = time.perf_counter() - start
    _warmed = True
    if metrics is not None:
        metrics.incr(COMPILE_SECONDS_COUNTER, elapsed)
        metrics.incr(WARMUP_COUNTER)
    else:
        _stage(COMPILE_SECONDS_COUNTER, elapsed)
        _stage(WARMUP_COUNTER)
    return elapsed


def _warmup_consts() -> np.ndarray:
    from . import fluid

    consts = np.zeros(fluid.CONSTS_LEN)
    consts[1] = 1.0  # shared_total
    consts[3] = 1.0  # drain
    consts[4] = 1.0  # max_offered
    consts[8] = 1.0  # responsive
    consts[9] = 1.0  # retransmit
    return consts


def pool_initializer(kernel_setting: str) -> None:
    """Worker-pool ``initializer`` hook: JIT-compile the native kernel
    at fork time when ``kernel_setting`` resolves to it, so no worker
    pays the compile on its first real task.  Compile time stays staged
    in the worker and is drained into that worker's task metrics by
    :func:`consume_pending`.

    A forked worker inherits the parent's ``tracemalloc`` tracer, whose
    allocation hook would tax every numpy temporary of the fluid loop,
    while the parent never reads a child's traced memory: stop it.
    """
    # Imported here so only pool workers load it: the import alone
    # shifts glibc's heap layout enough to move the packet simulator's
    # peak RSS by ~70 MB (malloc's dynamic mmap threshold).
    import tracemalloc

    if tracemalloc.is_tracing():
        tracemalloc.stop()
    if resolve_kernel(kernel_setting) == "native":
        warm_kernels()
