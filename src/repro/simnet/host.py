"""Simulated host: tap chain, packet demux, and an uplink to the ToR.

The host is where Millisampler lives.  Every delivered packet runs
through the live taps of the chain on ingress; every transmitted
segment runs through them on egress.  A host whose samplers are all
detached makes no tap call at all.
"""

from __future__ import annotations

from typing import Callable

from .. import units
from ..core.millisampler import Direction
from ..errors import SimulationError
from .audit import NOOP_TAP, active_tap
from .clock import HostClock
from .engine import Engine
from .link import Link
from .packet import FlowKey, Packet
from .tap import TapChain


class Host:
    """One rack server."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        clock: HostClock | None = None,
        link_rate: float = units.SERVER_LINK_RATE,
        propagation_delay: float = 1e-6,
    ) -> None:
        self.engine = engine
        self.name = name
        self.clock = clock or HostClock()
        self.taps = TapChain()
        self.uplink = Link(engine, link_rate, propagation_delay, name=f"{name}->tor")
        self._forward: Callable[[Packet], None] | None = None
        #: Flow-directed handlers (TCP endpoints register here).
        self._flow_handlers: dict[FlowKey, Callable[[Packet], None]] = {}
        #: Fallback application handler for unclaimed packets.
        self.default_handler: Callable[[Packet], None] | None = None
        self.received_bytes = 0
        self.sent_bytes = 0
        self._audit = active_tap()

    # -- wiring ---------------------------------------------------------------

    def connect(self, forward: Callable[[Packet], None]) -> None:
        """Point the uplink at the ToR's forwarding entry point."""
        self._forward = forward

    def register_flow(self, flow: FlowKey, handler: Callable[[Packet], None]) -> None:
        if flow in self._flow_handlers:
            raise SimulationError(f"flow {flow.as_tuple()} already registered on {self.name}")
        self._flow_handlers[flow] = handler

    def unregister_flow(self, flow: FlowKey) -> None:
        self._flow_handlers.pop(flow, None)

    # -- data path --------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Transmit a segment: egress taps (pre-TSO view), then the uplink."""
        if self._forward is None:
            raise SimulationError(f"host {self.name} is not connected to a switch")
        if packet.src != self.name:
            raise SimulationError(f"host {self.name} cannot send packet from {packet.src}")
        for tap in self.taps.live:
            tap.on_packet(packet, Direction.EGRESS, self.engine.now)
        self.sent_bytes += packet.size
        if self._audit is not NOOP_TAP:
            self._audit.on_host_send(self, packet)
        self.uplink.transmit(packet, self._forward)

    def deliver(self, packet: Packet) -> None:
        """Receive a packet from the ToR: ingress taps, then demux."""
        for tap in self.taps.live:
            tap.on_packet(packet, Direction.INGRESS, self.engine.now)
        self.received_bytes += packet.size
        if self._audit is not NOOP_TAP:
            self._audit.on_host_deliver(self, packet)
        handler = self._flow_handlers.get(packet.flow)
        if handler is not None:
            handler(packet)
        elif self.default_handler is not None:
            self.default_handler(packet)

    # -- convenience --------------------------------------------------------------

    def host_time(self) -> float:
        """This host's (possibly skewed) clock reading."""
        return self.clock.read(self.engine.now)
