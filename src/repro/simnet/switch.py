"""Top-of-rack switch with shared-memory buffering, ECN, and multicast.

Models the ToR of Section 3: per-server egress queues mapped onto four
buffer quadrants, Choudhury-Hahne dynamic thresholds inside each
quadrant, a static per-queue ECN marking threshold (120 KB), and
rack-local multicast replication (used by the Section 4.5 validation;
multicast is rate limited, which is why validation bursts do not reach
line rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .. import units
from ..config import BufferConfig
from ..errors import SimulationError
from .audit import NOOP_TAP, active_tap
from .buffer import SharedBuffer
from .engine import Engine
from .packet import Packet
from .queues import EgressQueue


@dataclass
class SwitchCounters:
    """Cumulative counters the production switch exports per minute
    (Figure 14/17 consume per-minute ingress volume and congestion
    discards)."""

    ingress_bytes: int = 0
    forwarded_bytes: int = 0
    discard_bytes: int = 0
    discard_packets: int = 0
    ecn_marked_bytes: int = 0
    multicast_replicas: int = 0
    multicast_rate_drops: int = 0


class _TokenBucket:
    """Byte token bucket used to rate-limit multicast replication."""

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last = 0.0

    def allow(self, size: int, now: float) -> bool:
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now
        if size <= self._tokens:
            self._tokens -= size
            return True
        return False


class ToRSwitch:
    """Shared-buffer ToR switch for one rack."""

    def __init__(
        self,
        engine: Engine,
        buffer_config: BufferConfig | None = None,
        num_quadrants: int = units.NUM_QUADRANTS,
        multicast_rate: float = units.gbps(2.0),
    ) -> None:
        if num_quadrants <= 0:
            raise SimulationError("switch needs at least one quadrant")
        self.engine = engine
        self.buffer_config = buffer_config or BufferConfig()
        self._audit = active_tap()
        self.quadrants = [SharedBuffer(self.buffer_config) for _ in range(num_quadrants)]
        self.counters = SwitchCounters()
        self._queues: dict[str, EgressQueue] = {}
        self._quadrant_of: dict[str, int] = {}
        self._multicast_groups: dict[str, list[str]] = {}
        self._multicast_bucket = _TokenBucket(multicast_rate, burst=multicast_rate * 0.01)
        #: Per-queue drop callbacks (TCP does not see these — loss is
        #: inferred end-to-end — but tests and loss accounting do).
        self.on_drop: Callable[[Packet, str], None] | None = None
        #: Where packets for non-local destinations go (the uplink into
        #: the fabric).  None means this ToR is standalone and unknown
        #: destinations are an error.
        self.default_route: Callable[[Packet], None] | None = None

    # -- wiring ---------------------------------------------------------------

    def connect_server(
        self,
        name: str,
        deliver: Callable[[Packet], None],
        rate: float = units.SERVER_LINK_RATE,
        propagation_delay: float = 1e-6,
        quadrant: int | None = None,
    ) -> EgressQueue:
        """Attach a server: creates its egress queue in a quadrant.

        The real mapping is "a function of the input and output port";
        we default to striping servers across quadrants round-robin,
        which preserves the property that ~1/4 of a rack's queues share
        each pool.
        """
        if name in self._queues:
            raise SimulationError(f"server {name!r} already connected")
        index = quadrant if quadrant is not None else len(self._queues) % len(self.quadrants)
        if not 0 <= index < len(self.quadrants):
            raise SimulationError(f"quadrant {index} out of range")
        queue = EgressQueue(
            engine=self.engine,
            buffer=self.quadrants[index],
            queue_id=name,
            rate=rate,
            on_dequeue=deliver,
            propagation_delay=propagation_delay,
        )
        self._queues[name] = queue
        self._quadrant_of[name] = index
        return queue

    def queue_for(self, server: str) -> EgressQueue:
        try:
            return self._queues[server]
        except KeyError:
            raise SimulationError(f"no queue for server {server!r}") from None

    def quadrant_for(self, server: str) -> SharedBuffer:
        return self.quadrants[self._quadrant_of[server]]

    @property
    def servers(self) -> list[str]:
        return list(self._queues)

    # -- multicast ------------------------------------------------------------

    def join_multicast(self, group: str, server: str) -> None:
        if server not in self._queues:
            raise SimulationError(f"server {server!r} not connected")
        members = self._multicast_groups.setdefault(group, [])
        if server not in members:
            members.append(server)

    def leave_multicast(self, group: str, server: str) -> None:
        members = self._multicast_groups.get(group, [])
        if server in members:
            members.remove(server)

    def multicast_members(self, group: str) -> list[str]:
        return list(self._multicast_groups.get(group, []))

    # -- forwarding ------------------------------------------------------------

    def forward(self, packet: Packet) -> None:
        """Ingress from an uplink or a rack server: route to the egress
        queue(s), applying ECN marking and buffer admission; non-local
        unicast destinations go up the default route (the fabric)."""
        self.counters.ingress_bytes += packet.size
        if packet.multicast_group is not None:
            if self._audit is not NOOP_TAP:
                self._audit.on_switch_ingress(self, packet, "multicast")
            self._forward_multicast(packet)
        elif packet.dst not in self._queues and self.default_route is not None:
            if self._audit is not NOOP_TAP:
                self._audit.on_switch_ingress(self, packet, "uplink")
            self.default_route(packet)
        else:
            if self._audit is not NOOP_TAP:
                self._audit.on_switch_ingress(self, packet, "local")
            self._enqueue(packet.dst, packet)

    def _forward_multicast(self, packet: Packet) -> None:
        group = packet.multicast_group
        assert group is not None
        members = self._multicast_groups.get(group, [])
        for member in members:
            if member == packet.src:
                continue
            if not self._multicast_bucket.allow(packet.size, self.engine.now):
                self.counters.multicast_rate_drops += 1
                if self._audit is not NOOP_TAP:
                    self._audit.on_multicast_rate_drop(self, packet)
                continue
            self.counters.multicast_replicas += 1
            self._enqueue(member, packet.copy_for(member))

    def _enqueue(self, server: str, packet: Packet) -> None:
        # queue_for() inlined: this runs once per forwarded packet.
        try:
            queue = self._queues[server]
        except KeyError:
            raise SimulationError(f"no queue for server {server!r}") from None
        # Static-threshold ECN marking at enqueue time (Section 3:
        # "a 120 KB static ECN threshold for all our ToRs").
        marked = False
        if (
            packet.ecn_capable
            and not packet.is_ack
            and queue.charge.occupancy > self.buffer_config.ecn_threshold_bytes
        ):
            packet = packet.marked()
            marked = True
        admitted = queue.enqueue(packet)
        if admitted:
            self.counters.forwarded_bytes += packet.size
            # Marked bytes count only when the packet is actually
            # buffered: a marked-then-discarded packet never carries its
            # CE codepoint anywhere, and counting it would inflate the
            # ECN/discard correlation (Figure 17).
            if marked:
                self.counters.ecn_marked_bytes += packet.size
        else:
            self.counters.discard_bytes += packet.size
            self.counters.discard_packets += 1
        if self._audit is not NOOP_TAP:
            self._audit.on_switch_enqueue(self, server, packet, admitted, marked)
        if not admitted and self.on_drop is not None:
            self.on_drop(packet, server)

    # -- telemetry --------------------------------------------------------------

    def total_buffer_occupancy(self) -> int:
        return sum(quadrant.shared_occupancy for quadrant in self.quadrants)

    def queue_occupancy(self, server: str) -> int:
        return self.queue_for(server).occupancy

    def snapshot_counters(self) -> SwitchCounters:
        """A copy of the cumulative counters (callers diff snapshots to
        get per-minute figures, as the production pipeline does)."""
        return SwitchCounters(**vars(self.counters))
