"""Host NIC model with GSO/GRO segmentation behaviour.

Section 4.6: the tc layer sees socket buffers *before* the sending
NIC's segmentation offload and *after* the receiver's offloaded
reassembly — so the sampler may observe 64 KB super-segments while the
wire carries MTU-sized packets.  The NIC therefore exposes two views:
``segment`` (wire packets for the network) and the original
super-segment (for the tap chain).
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from .. import units
from ..errors import SimulationError
from .audit import NOOP_TAP, active_tap
from .packet import Packet

#: TCP/IP header bytes carried by each wire packet.
HEADER_BYTES = 40

_segment_ids = itertools.count(10_000_000)


class Nic:
    """Segmentation/reassembly helper for a host NIC."""

    def __init__(self, mtu: int = units.MTU_BYTES, gso_max: int = units.GSO_MAX_BYTES) -> None:
        if mtu <= HEADER_BYTES:
            raise SimulationError("MTU must exceed the header size")
        if gso_max < mtu:
            raise SimulationError("GSO maximum cannot be below the MTU")
        self.mtu = mtu
        self.gso_max = gso_max
        self._audit = active_tap()

    def segment(self, packet: Packet) -> list[Packet]:
        """Split a super-segment into MTU-sized wire packets (TSO).

        Sequence numbers advance across the pieces; header flags (ECN
        codepoints, the retransmit label) are copied onto every piece,
        as the real offload replicates headers.
        """
        if packet.size > self.gso_max:
            raise SimulationError(
                f"segment of {packet.size}B exceeds GSO maximum {self.gso_max}B"
            )
        if packet.size <= self.mtu or packet.payload == 0:
            if self._audit is not NOOP_TAP:
                self._audit.on_segment(self, packet, [packet])
            return [packet]

        max_payload = self.mtu - HEADER_BYTES
        pieces: list[Packet] = []
        remaining = packet.payload
        seq = packet.seq
        while remaining > 0:
            payload = min(remaining, max_payload)
            pieces.append(
                replace(
                    packet,
                    size=payload + HEADER_BYTES,
                    payload=payload,
                    seq=seq,
                    packet_id=next(_segment_ids),
                )
            )
            seq += payload
            remaining -= payload
        if self._audit is not NOOP_TAP:
            self._audit.on_segment(self, packet, pieces)
        return pieces

    def coalesce(self, packets: list[Packet]) -> list[Packet]:
        """GRO: merge in-order same-flow wire packets into super-segments
        up to ``gso_max`` (what the receive-side tc hook observes).

        Packets with differing CE marks or retransmit labels are not
        merged — the kernel keeps those boundaries so per-packet signals
        survive reassembly.
        """
        if not packets:
            return []
        merged: list[Packet] = []
        current: Packet | None = None
        for packet in packets:
            can_merge = (
                current is not None
                and not packet.is_ack
                and not current.is_ack
                and packet.flow == current.flow
                and packet.seq == current.end_seq
                and current.size + packet.payload <= self.gso_max
                and packet.ecn_ce == current.ecn_ce
                and packet.retransmit == current.retransmit
            )
            if can_merge:
                assert current is not None
                current = replace(
                    current,
                    size=current.size + packet.payload,
                    payload=current.payload + packet.payload,
                )
            else:
                if current is not None:
                    merged.append(current)
                current = packet
        if current is not None:
            merged.append(current)
        if self._audit is not NOOP_TAP:
            self._audit.on_coalesce(self, packets, merged)
        return merged
