"""Reference TCP endpoints: the tests' oracles for the fast paths.

:class:`ReferenceReceiver` runs every data segment through the
reassembly map, as ``TcpReceiver._on_segment`` did before it handled an
in-order segment directly.  :class:`ReferenceSender` takes RTT samples
by scanning every send time on each ACK, as ``TcpSender._sample_rtt``
did before it stopped at the first send time that has not expired.
Each differs from the endpoint it subclasses only in that one method.
"""

from __future__ import annotations

from repro.simnet.packet import Packet
from repro.simnet.tcp.base import ACK_BYTES, TcpReceiver, TcpSender


class ReferenceReceiver(TcpReceiver):
    """Every segment goes through ``_advance``; ACKs built by keyword."""

    def _on_segment(self, packet: Packet) -> None:
        if packet.is_ack:
            return
        if packet.end_seq <= self.rcv_nxt:
            self.duplicate_segments += 1
        else:
            self._out_of_order[packet.seq] = max(
                self._out_of_order.get(packet.seq, 0), packet.end_seq
            )
            advanced = self._advance()
            if advanced and self.on_data is not None:
                self.on_data(advanced)
        ack = Packet(
            src=self.host.name,
            dst=self.flow.src,
            size=ACK_BYTES,
            flow=self.ack_flow,
            is_ack=True,
            ack=self.rcv_nxt,
            ecn_capable=False,
            ecn_echo=packet.ecn_ce,
        )
        self.host.send(ack)


class ReferenceSender(TcpSender):
    """RTT samples from a scan of every outstanding send time."""

    def _sample_rtt(self, acked_seq: int, now: float) -> None:
        expired = [seq for seq in self._send_times if seq < acked_seq]
        sample = None
        for seq in expired:
            sent_at = self._send_times.pop(seq)
            sample = now - sent_at
        if sample is not None:
            self.srtt = sample if self.srtt is None else 0.875 * self.srtt + 0.125 * sample
