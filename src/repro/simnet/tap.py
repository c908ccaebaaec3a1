"""The tc-like tap chain on simulated hosts.

A tap is "among the first programmable steps on the receipt of a packet
and near the last step on transmission" (Section 4.1).  Hosts run every
ingress packet (post-GRO) and egress packet (pre-TSO) through the live
taps of their chain; Millisampler attaches here via
:class:`MillisamplerTap`, and is live only while its filter is attached.
"""

from __future__ import annotations

from typing import Protocol

from ..core.millisampler import Direction, Millisampler, PacketObservation, SamplerState
from .clock import HostClock
from .packet import FlowKey, Packet


class PacketTap(Protocol):
    """Anything attachable to a host's tap chain."""

    def on_packet(self, packet: Packet, direction: Direction, now: float) -> None:
        """Observe one packet; ``now`` is true simulator time."""
        ...  # pragma: no cover


class TapChain:
    """Ordered list of taps a host runs per packet.

    A detached Millisampler filter is not in the chain: Section 4.1,
    "Detaching the tc filter ensures that no CPU time is used by the
    Millisampler while it is disabled".  ``live`` holds the taps a host
    dispatches to, in chain order: every attached tap except a
    :class:`MillisamplerTap` whose sampler is detached.  Each such
    sampler calls the chain back when it attaches or detaches, so
    ``live`` stays current without a per-packet state check.  Taps with
    no sampler are always live.
    """

    def __init__(self) -> None:
        self._taps: list[PacketTap] = []
        self.live: tuple[PacketTap, ...] = ()

    def attach(self, tap: PacketTap) -> None:
        if tap in self._taps:
            raise ValueError("tap already attached")
        self._taps.append(tap)
        if isinstance(tap, MillisamplerTap):
            tap.sampler.watchers.append(self._refresh)
        self._refresh()

    def detach(self, tap: PacketTap) -> None:
        self._taps.remove(tap)
        if isinstance(tap, MillisamplerTap):
            tap.sampler.watchers.remove(self._refresh)
        self._refresh()

    def __len__(self) -> int:
        return len(self._taps)

    def _refresh(self) -> None:
        self.live = tuple(
            tap
            for tap in self._taps
            if not isinstance(tap, MillisamplerTap)
            or tap.sampler.state is not SamplerState.DETACHED
        )


def rss_cpu(packet: Packet, cpus: int) -> int:
    """Receive-side-scaling CPU choice: flows hash to a consistent core,
    matching how soft-irq processing lands on many CPUs."""
    return hash(packet.flow.as_tuple()) % cpus


class MillisamplerTap:
    """Adapter feeding simulator packets into a :class:`Millisampler`.

    Timestamps come from the *host clock*, not true time — clock offsets
    are exactly what the Section 4.5 validation is about.

    A trace's packets come from a small working set of flows, so the
    per-flow values — the 5-tuple key and its RSS CPU — are memoized
    per :class:`~repro.simnet.packet.FlowKey` (hashable, frozen); the
    steady-state per-packet cost is one dict probe instead of a tuple
    build plus hash.  This pairs with the bounded memo inside
    :func:`repro.core.sketch.hash_flow_key`, which caches the sketch
    bit for the same tuples.
    """

    #: Flows cached per tap before the memo resets; a host converses
    #: with far fewer peers than this, so eviction is a non-event.
    _FLOW_CACHE_LIMIT = 1 << 16

    def __init__(self, sampler: Millisampler, clock: HostClock | None = None) -> None:
        self.sampler = sampler
        self.clock = clock or HostClock()
        self._flow_cache: dict[FlowKey, tuple[tuple, int]] = {}

    def on_packet(self, packet: Packet, direction: Direction, now: float) -> None:
        # No state check: the chain holds this tap only while the filter
        # is attached, and observe() refuses a detached one.
        cached = self._flow_cache.get(packet.flow)
        if cached is None:
            if len(self._flow_cache) >= self._FLOW_CACHE_LIMIT:
                self._flow_cache.clear()
            cached = (packet.flow.as_tuple(), rss_cpu(packet, self.sampler.cpus))
            self._flow_cache[packet.flow] = cached
        flow_key, cpu = cached
        observation = PacketObservation(
            time=self.clock.read(now),
            direction=direction,
            size=packet.size,
            flow_key=flow_key,
            cpu=cpu,
            ecn_marked=packet.ecn_ce,
            retransmit=packet.retransmit,
        )
        self.sampler.observe(observation)
