"""Trace tap: the tests' ground truth for the sampler's counters.

A lightweight ``tcpdump``-style companion to Millisampler for the
simulator: attach a :class:`TraceTap` to a host's tap chain and every
packet observation is recorded in full — the ground truth against
which sampler output is validated (and what the paper's cost
comparison says is too expensive to run fleet-wide).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.millisampler import Direction
from repro.errors import SimulationError
from repro.simnet.packet import Packet


@dataclass(frozen=True)
class TraceEntry:
    """One observed packet."""

    time: float
    direction: Direction
    size: int
    flow: tuple
    ecn_ce: bool
    retransmit: bool


@dataclass
class TraceTap:
    """Records every packet the host's tap chain dispatches."""

    #: Stop recording past this many entries (guards runaway memory).
    max_entries: int = 1_000_000
    entries: list[TraceEntry] = field(default_factory=list)
    truncated: bool = False

    def on_packet(self, packet: Packet, direction: Direction, now: float) -> None:
        if len(self.entries) >= self.max_entries:
            self.truncated = True
            return
        self.entries.append(
            TraceEntry(
                time=now,
                direction=direction,
                size=packet.size,
                flow=packet.flow.as_tuple(),
                ecn_ce=packet.ecn_ce,
                retransmit=packet.retransmit,
            )
        )

    # -- summaries -----------------------------------------------------------

    def total_bytes(self, direction: Direction | None = None) -> int:
        return sum(
            entry.size
            for entry in self.entries
            if direction is None or entry.direction is direction
        )

    def bucketize(
        self,
        interval: float,
        direction: Direction = Direction.INGRESS,
        start: float | None = None,
        buckets: int | None = None,
    ) -> np.ndarray:
        """Ground-truth per-bucket byte series, for cross-checking a
        Millisampler run byte-for-byte."""
        if interval <= 0:
            raise SimulationError("interval must be positive")
        relevant = [e for e in self.entries if e.direction is direction]
        if not relevant:
            return np.zeros(buckets or 0)
        t0 = start if start is not None else relevant[0].time
        end = max(e.time for e in relevant)
        count = buckets if buckets is not None else int((end - t0) / interval) + 1
        series = np.zeros(count)
        for entry in relevant:
            index = int((entry.time - t0) / interval)
            if 0 <= index < count:
                series[index] += entry.size
        return series

    def flows(self) -> set[tuple]:
        return {entry.flow for entry in self.entries}

    def clear(self) -> None:
        self.entries.clear()
        self.truncated = False
