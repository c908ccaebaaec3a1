"""Packet representation for the simulator.

A :class:`Packet` models what moves between hosts and the ToR — either
an MTU-sized wire packet or, at the tc layer, a GSO/GRO super-segment
up to 64 KB (Section 4.6).  TCP control state (sequence ranges, ACK
numbers, ECN bits, the Meta retransmit-label bit) travels in the packet
so switch and sampler behaviour can depend on it the way the real
network's does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from ..errors import SimulationError

_packet_ids = itertools.count()


class FlowKey(NamedTuple):
    """A bidirectional-flow identity (we keep it one-directional: the
    reverse direction is a distinct key, matching how the sketch counts
    incoming and outgoing connections).

    A named tuple, so hashing and comparing a key (the per-packet demux
    in :meth:`repro.simnet.host.Host.deliver`) runs no Python code.
    """

    src: str
    dst: str
    sport: int = 0
    dport: int = 0
    proto: str = "tcp"

    def reversed(self) -> "FlowKey":
        return FlowKey(self.dst, self.src, self.dport, self.sport, self.proto)

    def as_tuple(self) -> tuple:
        return tuple(self)


@dataclass(slots=True)
class Packet:
    """One simulated packet/segment."""

    src: str
    dst: str
    size: int  # bytes on the wire, headers included
    flow: FlowKey
    seq: int = 0  # first payload byte
    payload: int = 0  # payload bytes (size >= payload)
    is_ack: bool = False
    ack: int = 0  # cumulative ACK number
    ecn_capable: bool = True  # ECT set (DCTCP traffic is ECN-capable)
    ecn_ce: bool = False  # CE mark applied by a switch
    ecn_echo: bool = False  # receiver echoing CE to sender
    retransmit: bool = False  # the Meta retransmit-label bit (Section 4.2)
    multicast_group: str | None = None
    enqueued_at: float = 0.0
    packet_id: int = field(default_factory=_packet_ids.__next__)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SimulationError("packet size must be positive")
        if self.payload < 0 or self.payload > self.size:
            raise SimulationError("payload must fit inside the packet")

    def marked(self) -> "Packet":
        """A copy with the CE codepoint set (switch ECN marking).

        Built field by field rather than through ``dataclasses.replace``
        (a switch marks tens of thousands of packets per incast); the
        copy keeps the packet id and runs the same validation.
        """
        return Packet(
            self.src,
            self.dst,
            self.size,
            self.flow,
            self.seq,
            self.payload,
            self.is_ack,
            self.ack,
            self.ecn_capable,
            True,
            self.ecn_echo,
            self.retransmit,
            self.multicast_group,
            self.enqueued_at,
            self.packet_id,
        )

    def copy_for(self, dst: str) -> "Packet":
        """A multicast replica destined for ``dst`` (fresh packet id)."""
        return replace(self, dst=dst, packet_id=next(_packet_ids))

    @property
    def end_seq(self) -> int:
        return self.seq + self.payload
