"""Per-CPU counter arrays for Millisampler.

Section 4.1: "Because processing happens on many CPU cores, to avoid
locks, we use per-cpu variables, which increases the memory requirement
to eliminate risk of contention."  Each measured value gets one 64-bit
counter per bucket per CPU; reading a run aggregates across CPUs.
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import SamplerError


class CounterKind(enum.Enum):
    """The values Millisampler tallies per bucket (Section 4.2, Figure 2)."""

    IN_BYTES = "in"
    IN_RETX_BYTES = "in_retx"
    OUT_BYTES = "out"
    OUT_RETX_BYTES = "out_retx"
    IN_ECN_BYTES = "in_ecn"
    FLOW_SKETCH = "flow"


#: Counter kinds that tally byte volumes (everything except the sketch).
BYTE_COUNTER_KINDS = (
    CounterKind.IN_BYTES,
    CounterKind.IN_RETX_BYTES,
    CounterKind.OUT_BYTES,
    CounterKind.OUT_RETX_BYTES,
    CounterKind.IN_ECN_BYTES,
)


class PerCpuCounters:
    """A ``cpus x buckets`` array of 64-bit counters for one kind.

    Mirrors the eBPF per-cpu map: increments are lock-free because each
    CPU owns a row; aggregation sums rows at read-out time.
    """

    def __init__(self, cpus: int, buckets: int) -> None:
        if cpus <= 0 or buckets <= 0:
            raise SamplerError("counter dimensions must be positive")
        self.cpus = cpus
        self.buckets = buckets
        self._values = np.zeros((cpus, buckets), dtype=np.uint64)

    def add(self, cpu: int, bucket: int, amount: int) -> None:
        """Increment one counter; bounds are checked because a bad bucket
        index in the kernel would corrupt adjacent map entries."""
        if not 0 <= cpu < self.cpus:
            raise SamplerError(f"cpu {cpu} out of range [0, {self.cpus})")
        if not 0 <= bucket < self.buckets:
            raise SamplerError(f"bucket {bucket} out of range [0, {self.buckets})")
        if amount < 0:
            raise SamplerError("counters are monotonic; negative add rejected")
        self._values[cpu, bucket] += np.uint64(amount)

    def aggregate(self) -> np.ndarray:
        """Sum across CPUs, yielding one value per bucket."""
        return self._values.sum(axis=0, dtype=np.uint64)

    def reset(self) -> None:
        """Zero all counters (between runs)."""
        self._values.fill(0)

    @property
    def nbytes(self) -> int:
        """In-kernel memory footprint of this map."""
        return self._values.nbytes


class CounterSet:
    """All Millisampler counters for one run.

    Byte counters are plain per-CPU arrays.  The flow "counter" is a
    per-bucket sketch bitmap; its storage is accounted here, but the
    bitmaps live in the sampler's own ``(cpus, buckets, SKETCH_WORDS)``
    uint64 array.
    """

    def __init__(self, cpus: int, buckets: int, count_flows: bool = True) -> None:
        self.cpus = cpus
        self.buckets = buckets
        self.count_flows = count_flows
        self._counters: dict[CounterKind, PerCpuCounters] = {
            kind: PerCpuCounters(cpus, buckets) for kind in BYTE_COUNTER_KINDS
        }

    def __getitem__(self, kind: CounterKind) -> PerCpuCounters:
        try:
            return self._counters[kind]
        except KeyError:
            raise SamplerError(f"{kind} is not a byte counter") from None

    def add(self, kind: CounterKind, cpu: int, bucket: int, amount: int) -> None:
        """Increment the counter of ``kind`` on ``cpu`` at ``bucket``."""
        self[kind].add(cpu, bucket, amount)

    def aggregate(self) -> dict[CounterKind, np.ndarray]:
        """Aggregate every byte counter across CPUs."""
        return {kind: pc.aggregate() for kind, pc in self._counters.items()}

    def reset(self) -> None:
        for pc in self._counters.values():
            pc.reset()

    @property
    def nbytes(self) -> int:
        """Total in-kernel footprint (see :meth:`footprint`)."""
        return self.footprint(self.cpus, self.buckets, self.count_flows)

    @staticmethod
    def footprint(cpus: int, buckets: int, count_flows: bool = True) -> int:
        """In-kernel bytes of a counter set of this shape: one 64-bit
        counter per byte kind, bucket and CPU, plus, if flows are
        counted, one 128-bit sketch bitmap per bucket per CPU."""
        total = len(BYTE_COUNTER_KINDS) * cpus * buckets * 8
        if count_flows:
            total += cpus * buckets * 16  # 128 bits per sketch
        return total
