"""Reliable transport core: sender, receiver, and the congestion-control
strategy interface.

Design notes:

* **Byte-based windows.**  ``cwnd`` is in bytes; senders emit segments
  of up to ``segment_bytes`` payload (the tc layer sees these pre-TSO
  super-segments, Section 4.6).
* **Loss detection.**  Three duplicate cumulative ACKs trigger fast
  retransmit; an RTO with no progress triggers a timeout-based
  retransmission with the window collapsed.  Both kinds set the
  retransmit-label bit on the retransmitted segment — the unused header
  bit Meta's TCP tooling sets "when TCP processes a timeout or fast
  retransmission (not a tail loss probe)" (Section 4.2) — so
  Millisampler's retx counters see exactly what the paper's do.
* **ECN.**  Data segments are ECN-capable; receivers echo the CE state
  of each arriving segment on its ACK (DCTCP-style accurate echo), and
  the congestion-control strategy decides what to do with the echoes.
"""

from __future__ import annotations

import itertools
from typing import Callable

from ...errors import SimulationError
from ..engine import Engine
from ..host import Host
from ..packet import FlowKey, Packet

#: ACK wire size (header-only packet).
ACK_BYTES = 64
#: TCP/IP header bytes on data segments.
HEADER_BYTES = 40

_port_allocator = itertools.count(40_000)


class CongestionControl:
    """Strategy interface; implementations own the cwnd in bytes."""

    def __init__(self, mss: int, initial_cwnd_segments: int = 10) -> None:
        if mss <= 0:
            raise SimulationError("MSS must be positive")
        self.mss = mss
        self.cwnd = float(initial_cwnd_segments * mss)
        self.ssthresh = float("inf")

    def on_ack(self, acked_bytes: int, ecn_echo: bool, now: float, rtt: float) -> None:
        """New data acknowledged."""
        raise NotImplementedError

    def on_fast_retransmit(self, now: float) -> None:
        """Triple-dupack loss."""
        raise NotImplementedError

    def on_timeout(self, now: float) -> None:
        """RTO fired: collapse to one segment (all variants)."""
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)

    def _floor(self) -> None:
        self.cwnd = max(self.cwnd, float(self.mss))


class RenoControl(CongestionControl):
    """Classic slow start + AIMD; the neutral baseline."""

    def on_ack(self, acked_bytes: int, ecn_echo: bool, now: float, rtt: float) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += acked_bytes  # slow start: +1 MSS per MSS acked
        else:
            self.cwnd += self.mss * acked_bytes / self.cwnd  # congestion avoidance

    def on_fast_retransmit(self, now: float) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.mss)
        self.cwnd = self.ssthresh
        self._floor()


class TcpReceiver:
    """Receive side: cumulative ACKs with per-segment ECN echo."""

    def __init__(self, host: Host, flow: FlowKey, on_data: Callable[[int], None] | None = None) -> None:
        self.host = host
        self.flow = flow  # sender -> receiver direction
        #: The key every ACK of this connection carries (receiver -> sender).
        self.ack_flow = flow.reversed()
        #: This end's and the peer's host names, the addresses of every ACK.
        self._name = host.name
        self._peer = flow.src
        self.on_data = on_data
        self.rcv_nxt = 0
        self._out_of_order: dict[int, int] = {}  # seq -> end_seq
        self.received_payload = 0
        self.duplicate_segments = 0
        host.register_flow(flow, self._on_segment)

    def _on_segment(self, packet: Packet) -> None:
        if packet.is_ack:
            return
        seq = packet.seq
        end = seq + packet.payload
        rcv_nxt = self.rcv_nxt
        if end <= rcv_nxt:
            self.duplicate_segments += 1
        elif seq <= rcv_nxt and not self._out_of_order:
            # In order with nothing waiting to be reassembled: the one
            # step _advance() would take.
            self.rcv_nxt = end
            self.received_payload += end - rcv_nxt
            if self.on_data is not None:
                self.on_data(end - rcv_nxt)
        else:
            self._out_of_order[seq] = max(self._out_of_order.get(seq, 0), end)
            advanced = self._advance()
            if advanced and self.on_data is not None:
                self.on_data(advanced)
        self._send_ack(packet.ecn_ce)

    def _advance(self) -> int:
        """Consume in-order data from the reassembly map."""
        before = self.rcv_nxt
        progressed = True
        while progressed:
            progressed = False
            for seq in sorted(self._out_of_order):
                end = self._out_of_order[seq]
                if seq <= self.rcv_nxt < end:
                    self.rcv_nxt = end
                    del self._out_of_order[seq]
                    progressed = True
                    break
                if end <= self.rcv_nxt:
                    del self._out_of_order[seq]
                    progressed = True
                    break
        gained = self.rcv_nxt - before
        self.received_payload += gained
        return gained

    def _send_ack(self, ecn_echo: bool) -> None:
        # Positional, in field order: src, dst, size, flow, seq, payload,
        # is_ack, ack, ecn_capable, ecn_ce, ecn_echo.
        self.host.send(
            Packet(
                self._name, self._peer, ACK_BYTES, self.ack_flow, 0, 0,
                True, self.rcv_nxt, False, False, ecn_echo,
            )
        )

    def close(self) -> None:
        self.host.unregister_flow(self.flow)


class TcpSender:
    """Send side of one connection."""

    #: Minimum retransmission timeout (production data centers use
    #: single-digit milliseconds).
    MIN_RTO = 5e-3
    DUPACK_THRESHOLD = 3

    def __init__(
        self,
        host: Host,
        flow: FlowKey,
        control: CongestionControl,
        segment_bytes: int = 16 * 1024,
        on_complete: Callable[[], None] | None = None,
    ) -> None:
        if segment_bytes <= 0:
            raise SimulationError("segment size must be positive")
        self.host = host
        self.engine: Engine = host.engine
        self.flow = flow
        #: This end's and the peer's host names, the addresses of every segment.
        self._name = host.name
        self._peer = flow.dst
        self.control = control
        self.segment_bytes = segment_bytes
        self.on_complete = on_complete

        self.snd_una = 0
        self.snd_nxt = 0
        self.app_limit = 0  # total bytes the app has asked to send
        self._dupacks = 0
        self._recover = 0  # highest seq outstanding when loss was detected
        self._in_recovery = False
        self._rto_pending = False
        self._last_progress = 0.0
        self.srtt: float | None = None
        self._send_times: dict[int, float] = {}  # seq -> send time (RTT samples)

        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.delivered_bytes = 0
        self._backoff = 0  # consecutive RTOs without progress

        host.register_flow(flow.reversed(), self._on_ack)

    # -- app interface -----------------------------------------------------------

    def send(self, nbytes: int) -> None:
        """Ask the connection to deliver ``nbytes`` more payload bytes."""
        if nbytes <= 0:
            raise SimulationError("send size must be positive")
        self.app_limit += nbytes
        self._pump()

    @property
    def done(self) -> bool:
        return self.snd_una >= self.app_limit

    @property
    def flight(self) -> int:
        return self.snd_nxt - self.snd_una

    #: Cap on exponential RTO backoff doublings.
    MAX_BACKOFF = 6

    @property
    def rto(self) -> float:
        base = self.MIN_RTO * 4 if self.srtt is None else max(self.MIN_RTO, 2.0 * self.srtt)
        return base * (2 ** min(self._backoff, self.MAX_BACKOFF))

    # -- transmission -----------------------------------------------------------

    def _pump(self) -> None:
        """Send as much new data as cwnd and the app backlog allow.

        Sending schedules events and never re-enters this sender, so the
        window, the backlog and snd_una are read once per call.
        """
        window = int(self.control.cwnd)
        app_limit = self.app_limit
        snd_una = self.snd_una
        snd_nxt = self.snd_nxt
        while snd_nxt < app_limit:
            room = window - (snd_nxt - snd_una)
            if room < 1:
                break
            payload = min(self.segment_bytes, app_limit - snd_nxt, room)
            self._transmit(snd_nxt, payload, False)
            snd_nxt += payload
            self.snd_nxt = snd_nxt
        self._arm_rto()

    def _transmit(self, seq: int, payload: int, retransmit: bool) -> None:
        if not retransmit:
            self._send_times[seq] = self.engine.now
        # Positional, in field order: src, dst, size, flow, seq, payload,
        # is_ack, ack, ecn_capable, ecn_ce, ecn_echo, retransmit.
        self.host.send(
            Packet(
                self._name, self._peer, payload + HEADER_BYTES, self.flow, seq, payload,
                False, 0, True, False, False, retransmit,
            )
        )

    # -- ACK processing -----------------------------------------------------------

    def _on_ack(self, packet: Packet) -> None:
        if not packet.is_ack:
            return
        now = self.engine.now
        ack = packet.ack
        snd_una = self.snd_una
        if ack > snd_una:
            acked = ack - snd_una
            self.snd_una = ack
            if self.snd_nxt < ack:
                # The ACK passed snd_nxt: after a go-back-N timeout the
                # retransmission filled the receiver's hole.  Resume at
                # snd_una, not below it (BSD: if snd_nxt < snd_una,
                # snd_nxt = snd_una), or acknowledged bytes go out again.
                self.snd_nxt = ack
            self.delivered_bytes += acked
            self._dupacks = 0
            self._backoff = 0  # progress resets exponential backoff
            self._last_progress = now
            self._sample_rtt(ack, now)
            if self._in_recovery and ack >= self._recover:
                self._in_recovery = False
            if not self._in_recovery:
                self.control.on_ack(acked, packet.ecn_echo, now, self.srtt or self.MIN_RTO)
            if ack >= self.app_limit:  # done
                self._rto_pending = False
                if self.on_complete is not None:
                    callback, self.on_complete = self.on_complete, None
                    callback()
                return
        elif ack == snd_una and self.snd_nxt > snd_una:  # a dupack with data in flight
            self._dupacks += 1
            if self._dupacks == self.DUPACK_THRESHOLD and not self._in_recovery:
                self._fast_retransmit(now)
        self._pump()

    def _sample_rtt(self, acked_seq: int, now: float) -> None:
        """Karn's algorithm: only segments sent exactly once give samples.

        The send-time keys increase in insertion order: new data is
        always sent at snd_nxt, and snd_nxt moves back only in
        _timeout(), which clears the dict.  So the keys below
        ``acked_seq`` are a prefix, and the scan stops at the first key
        that has not expired.
        """
        send_times = self._send_times
        expired = []
        for seq in send_times:
            if seq >= acked_seq:
                break
            expired.append(seq)
        if not expired:
            return
        sample = now - send_times[expired[-1]]
        for seq in expired:
            del send_times[seq]
        self.srtt = sample if self.srtt is None else 0.875 * self.srtt + 0.125 * sample

    # -- loss handling -----------------------------------------------------------

    def _fast_retransmit(self, now: float) -> None:
        self._in_recovery = True
        self._recover = self.snd_nxt
        self.fast_retransmits += 1
        self.retransmissions += 1
        self.control.on_fast_retransmit(now)
        payload = min(self.segment_bytes, self.app_limit - self.snd_una)
        self._send_times.pop(self.snd_una, None)  # Karn: no sample from retx
        self._transmit(self.snd_una, payload, retransmit=True)

    def _arm_rto(self) -> None:
        if self._rto_pending or self.snd_nxt == self.snd_una:  # nothing in flight
            return
        self._rto_pending = True
        armed_at = self.engine.now
        self.engine.at(armed_at + self.rto, self._check_rto, armed_at)

    def _check_rto(self, armed_at: float) -> None:
        """The RTO armed at ``armed_at`` fires."""
        self._rto_pending = False
        if self.done or self.flight == 0:
            return
        if self._last_progress >= armed_at:
            self._arm_rto()  # progress since arming: re-arm
            return
        self._timeout()

    def _timeout(self) -> None:
        """RTO: collapse the window, go back to snd_una, back off."""
        self.timeouts += 1
        self.retransmissions += 1
        self._backoff += 1
        self._in_recovery = False
        self._dupacks = 0
        self.control.on_timeout(self.engine.now)
        self.snd_nxt = self.snd_una  # go-back-N
        self._send_times.clear()
        payload = min(self.segment_bytes, self.app_limit - self.snd_una)
        if payload > 0:
            self._transmit(self.snd_una, payload, retransmit=True)
            self.snd_nxt = self.snd_una + payload
        self._arm_rto()

    def close(self) -> None:
        self.host.unregister_flow(self.flow.reversed())


def open_connection(
    sender_host: Host,
    receiver_host: Host,
    control: CongestionControl,
    segment_bytes: int = 16 * 1024,
    on_complete: Callable[[], None] | None = None,
    sport: int | None = None,
    dport: int = 443,
) -> tuple[TcpSender, TcpReceiver]:
    """Wire up one unidirectional TCP connection between two hosts."""
    flow = FlowKey(
        src=sender_host.name,
        dst=receiver_host.name,
        sport=sport if sport is not None else next(_port_allocator),
        dport=dport,
    )
    receiver = TcpReceiver(receiver_host, flow)
    sender = TcpSender(
        sender_host, flow, control, segment_bytes=segment_bytes, on_complete=on_complete
    )
    return sender, receiver
