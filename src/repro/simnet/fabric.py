"""Fabric layer: multi-rack topologies behind an aggregation tier.

Section 3: racks connect upstream with 4 or 8 uplinks of 40/100 Gbps;
"most of the congestion in our network happens in the server-link
connecting the ToR to the servers", and the fabric's ASICs have larger
buffers and faster links, so "similar contention levels could result
in less loss, and also result in somewhat smoother bursts arriving
downstream at the racks" (Section 8.1's explanation for RegA-High's
fabric discards).

The model collapses the pod's aggregation/spine layers into one
logical :class:`FabricSwitch`: per-attached-rack downlink queues over
a large shared buffer (bigger per-queue share and faster drain than
the ToR — the two properties the paper's argument needs), with the
same dynamic-threshold sharing.  ToR uplinks are modeled as the
aggregate uplink capacity, since uplink congestion is rare by the
paper's account.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import units
from ..config import BufferConfig, RackConfig, SamplerConfig
from ..errors import SimulationError
from .audit import NOOP_TAP, active_tap
from .engine import Engine
from .link import Link
from .packet import Packet
from .queues import EgressQueue
from .buffer import SharedBuffer
from .topology import Rack, build_rack

#: Fabric-tier buffer: larger than a ToR quadrant, higher ECN headroom
#: (the fabric ECN deployment "is currently largely operational only on
#: the ToR", Section 3 — so marking there is effectively off).
FABRIC_BUFFER = BufferConfig(
    shared_bytes=units.mb(48),
    dedicated_bytes_per_queue=units.mb(1),
    alpha=2.0,
    ecn_threshold_bytes=1e12,
)


class FabricSwitch:
    """One logical aggregation layer interconnecting racks."""

    def __init__(
        self,
        engine: Engine,
        buffer_config: BufferConfig = FABRIC_BUFFER,
        downlink_rate: float = units.gbps(400),
        downlink_delay: float = 4e-6,
    ) -> None:
        self.engine = engine
        self.buffer = SharedBuffer(buffer_config)
        self.downlink_rate = downlink_rate
        self.downlink_delay = downlink_delay
        self._downlinks: dict[str, EgressQueue] = {}
        self._rack_of_host: dict[str, str] = {}
        self.forwarded_bytes = 0
        self.discard_bytes = 0
        self._audit = active_tap()

    def attach_rack(self, rack: Rack, uplink_rate: float = units.gbps(400)) -> None:
        """Wire a rack under the fabric.

        The rack's ToR gets a default route up (an aggregate-capacity
        uplink), and the fabric gets a downlink queue toward the rack.
        """
        if rack.name in self._downlinks:
            raise SimulationError(f"rack {rack.name!r} already attached")
        downlink = EgressQueue(
            engine=self.engine,
            buffer=self.buffer,
            queue_id=f"fabric->{rack.name}",
            rate=self.downlink_rate,
            on_dequeue=rack.switch.forward,
            propagation_delay=self.downlink_delay,
        )
        self._downlinks[rack.name] = downlink
        for host in rack.hosts:
            self._rack_of_host[host.name] = rack.name

        uplink = Link(
            self.engine, uplink_rate, propagation_delay=self.downlink_delay,
            name=f"{rack.name}->fabric",
        )
        rack.switch.default_route = lambda packet: uplink.transmit(
            packet, self.forward
        )

    def forward(self, packet: Packet) -> None:
        """Route a packet to its destination rack's downlink queue."""
        rack_name = self._rack_of_host.get(packet.dst)
        if rack_name is None:
            raise SimulationError(f"fabric has no route to {packet.dst!r}")
        queue = self._downlinks[rack_name]
        admitted = queue.enqueue(packet)
        if admitted:
            self.forwarded_bytes += packet.size
        else:
            self.discard_bytes += packet.size
        if self._audit is not NOOP_TAP:
            self._audit.on_fabric_enqueue(self, rack_name, packet, admitted)

    @property
    def racks(self) -> list[str]:
        return list(self._downlinks)

    def downlink_occupancy(self, rack_name: str) -> int:
        try:
            return self._downlinks[rack_name].occupancy
        except KeyError:
            raise SimulationError(f"no downlink for rack {rack_name!r}") from None


@dataclass
class Pod:
    """A multi-rack topology: racks under one fabric."""

    engine: Engine
    fabric: FabricSwitch
    racks: list[Rack]
    _host_index: dict[str, tuple[int, int]] = field(default_factory=dict)

    def host(self, name: str):
        """Find a host anywhere in the pod."""
        try:
            rack_index, host_index = self._host_index[name]
        except KeyError:
            raise SimulationError(f"no host {name!r} in pod") from None
        return self.racks[rack_index].hosts[host_index]

    def poll_samplers(self) -> None:
        for rack in self.racks:
            rack.poll_samplers()


def build_pod(
    racks: int = 2,
    servers_per_rack: int = 8,
    rack_config: RackConfig | None = None,
    sampler_config: SamplerConfig | None = None,
    fabric_buffer: BufferConfig = FABRIC_BUFFER,
    rng: np.random.Generator | None = None,
    region: str = "RegA",
) -> Pod:
    """Build ``racks`` racks interconnected by one fabric switch.

    Hosts are named ``rack<i>-s<j>``; traffic between hosts in
    different racks flows server -> ToR -> fabric -> ToR -> server.
    """
    if racks <= 0:
        raise SimulationError("pod needs at least one rack")
    engine = Engine()
    rng = rng or np.random.default_rng(0)
    fabric = FabricSwitch(engine, buffer_config=fabric_buffer)
    built: list[Rack] = []
    host_index: dict[str, tuple[int, int]] = {}
    for rack_number in range(racks):
        rack = build_rack(
            name=f"rack{rack_number}",
            servers=servers_per_rack,
            rack_config=rack_config,
            sampler_config=sampler_config,
            engine=engine,
            region=region,
            rng=rng,
        )
        fabric.attach_rack(rack)
        for host_number, host in enumerate(rack.hosts):
            host_index[host.name] = (rack_number, host_number)
        built.append(rack)
    return Pod(engine=engine, fabric=fabric, racks=built, _host_index=host_index)
