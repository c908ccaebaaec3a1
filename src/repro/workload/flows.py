"""Packet-level traffic applications for the simulator.

Implements the paper's validation tooling (Section 4.5) and the traffic
patterns the analysis cares about:

* :class:`MulticastBurster` — "a tool that sends periodic bursts to a
  rack-local multicast address" (the Figure 3 validation).
* :class:`BurstServer` / :class:`BurstGeneratorClient` — "a client
  periodically requesting a server to transmit a burst of a specified
  volume" (the Figure 4 validation: 1.8 MB bursts, ~3 ms at link rate).
* :class:`IncastApp` — synchronized many-to-one transfers over DCTCP,
  the "heavy incast" pattern Section 3 calls out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .. import units
from ..errors import SimulationError
from ..simnet.engine import Engine
from ..simnet.host import Host
from ..simnet.packet import FlowKey, Packet
from ..simnet.tcp import DctcpControl, TcpReceiver, TcpSender, open_connection

_flow_ports = itertools.count(50_000)


class MulticastBurster:
    """Sends a fixed-size burst to a multicast group every period."""

    def __init__(
        self,
        host: Host,
        group: str,
        burst_bytes: int = 256 * 1024,
        period: float = 100e-3,
        packet_bytes: int = 8 * 1024,
        send_rate: float | None = None,
    ) -> None:
        if burst_bytes <= 0 or packet_bytes <= 0:
            raise SimulationError("burst and packet sizes must be positive")
        self.host = host
        self.group = group
        self.burst_bytes = burst_bytes
        self.period = period
        self.packet_bytes = packet_bytes
        #: Pacing rate of the burst on the sender's link (defaults to
        #: the host link rate).
        self.send_rate = send_rate or host.uplink.rate
        self.bursts_sent = 0
        self._flow = FlowKey(host.name, group, next(_flow_ports), 5001, proto="udp")
        self._running = False

    def start(self) -> None:
        if self._running:
            raise SimulationError("burster already running")
        self._running = True
        self.host.engine.after(0.0, self._send_burst)

    def stop(self) -> None:
        self._running = False

    def _send_burst(self) -> None:
        if not self._running:
            return
        remaining = self.burst_bytes
        delay = 0.0
        while remaining > 0:
            size = min(self.packet_bytes, remaining)
            packet = Packet(
                src=self.host.name,
                dst=self.group,
                size=size,
                flow=self._flow,
                ecn_capable=False,
                multicast_group=self.group,
            )
            self.host.engine.after(delay, self.host.send, packet)
            delay += size / self.send_rate
            remaining -= size
        self.bursts_sent += 1
        self.host.engine.after(self.period, self._send_burst)


class BurstServer:
    """Responds to burst requests by transmitting raw paced packets.

    Raw (non-TCP) pacing keeps the validation deterministic: the burst
    occupies exactly ``volume / rate`` seconds on the wire, giving the
    ~3 ms bursts of Figure 4 for 1.8 MB at 12.5 Gbps... as long as the
    rack buffer admits them.
    """

    def __init__(self, host: Host, packet_bytes: int = 16 * 1024) -> None:
        self.host = host
        self.packet_bytes = packet_bytes
        self.bursts_served = 0

    def transmit_burst(self, client: str, volume: int, rate: float | None = None) -> None:
        """Send ``volume`` bytes to ``client`` paced at ``rate``."""
        if volume <= 0:
            raise SimulationError("burst volume must be positive")
        rate = rate or self.host.uplink.rate
        flow = FlowKey(self.host.name, client, next(_flow_ports), 5002, proto="udp")
        remaining = volume
        delay = 0.0
        seq = 0
        while remaining > 0:
            size = min(self.packet_bytes, remaining)
            packet = Packet(
                src=self.host.name,
                dst=client,
                size=size,
                flow=flow,
                seq=seq,
                payload=size,
                ecn_capable=False,
            )
            self.host.engine.after(delay, self.host.send, packet)
            delay += size / rate
            seq += size
            remaining -= size
        self.bursts_served += 1


class BurstGeneratorClient:
    """Periodically requests bursts from a server, on its own local clock.

    Section 4.5: "Each request is sent at the specified frequency based
    on client's local clock."  Request propagation is modelled as a
    small fixed control delay rather than a full RPC.
    """

    def __init__(
        self,
        client: Host,
        server: BurstServer,
        burst_bytes: int = int(1.8 * units.MB),
        period: float = 200e-3,
        burst_rate: float | None = None,
        request_delay: float = 50e-6,
    ) -> None:
        self.client = client
        self.server = server
        self.burst_bytes = burst_bytes
        self.period = period
        self.burst_rate = burst_rate
        self.request_delay = request_delay
        self.requests_sent = 0
        self._running = False

    def start(self, first_request: float = 0.0) -> None:
        if self._running:
            raise SimulationError("client already running")
        self._running = True
        # Fire when the *client clock* reads first_request (+ k*period):
        # convert each desired local time to true time via the clock.
        true_start = self.client.clock.invert(
            self.client.clock.read(self.client.engine.now) + first_request
        )
        self.client.engine.at(max(true_start, self.client.engine.now), self._request)

    def stop(self) -> None:
        self._running = False

    def _request(self) -> None:
        if not self._running:
            return
        self.requests_sent += 1
        self.client.engine.after(
            self.request_delay,
            self.server.transmit_burst,
            self.client.name,
            self.burst_bytes,
            self.burst_rate,
        )
        self.client.engine.after(self.period, self._request)


class BackgroundTrickle:
    """Light periodic traffic between rack neighbours.

    Production hosts always carry some traffic, so Millisampler runs
    start promptly when enabled (the run clock starts on the first
    packet).  Idle simulated hosts would instead start late and shrink
    every SyncMillisampler common window; a trickle restores the
    realistic always-some-traffic baseline.
    """

    def __init__(self, hosts: list[Host], period: float = 5e-3, size: int = 2000) -> None:
        if not hosts:
            raise SimulationError("trickle needs hosts")
        if period <= 0 or size <= 0:
            raise SimulationError("period and size must be positive")
        self.hosts = hosts
        self.period = period
        self.size = size
        self._running = False
        self.packets_sent = 0

    def start(self) -> None:
        if self._running:
            raise SimulationError("trickle already running")
        self._running = True
        for index in range(len(self.hosts)):
            self.hosts[index].engine.after(index * 1e-5, self._tick, index)

    def stop(self) -> None:
        self._running = False

    def _tick(self, index: int) -> None:
        if not self._running:
            return
        source = self.hosts[index]
        target = self.hosts[(index + 1) % len(self.hosts)]
        packet = Packet(
            src=source.name,
            dst=target.name,
            size=self.size,
            flow=FlowKey(source.name, target.name, 9000 + index, 9000, proto="udp"),
            ecn_capable=False,
        )
        source.send(packet)
        self.packets_sent += 1
        source.engine.after(self.period, self._tick, index)


@dataclass
class IncastResult:
    """Outcome of one incast round.

    The loss totals are summed from the round's connections whenever
    they are read, so a round still in progress reports the
    retransmissions and timeouts its senders have made so far.
    """

    senders: int
    bytes_per_sender: int
    completed: int = 0
    finish_time: float | None = None
    #: The round's (sender, receiver) pairs, opened at launch.
    connections: list[tuple[TcpSender, TcpReceiver]] = field(default_factory=list, repr=False)

    @property
    def total_retransmissions(self) -> int:
        return sum(sender.retransmissions for sender, _ in self.connections)

    @property
    def total_timeouts(self) -> int:
        return sum(sender.timeouts for sender, _ in self.connections)


class IncastApp:
    """Synchronized many-to-one transfer over DCTCP.

    ``fanin`` senders each push ``bytes_per_sender`` to one receiver at
    the same instant — the pattern where "even a small congestion
    window per sender can result in packet loss due to the large number
    of senders overflowing the buffer" (Section 3).
    """

    def __init__(
        self,
        senders: list[Host],
        receiver: Host,
        bytes_per_sender: int = 64 * 1024,
        mss: int = 1448,
        segment_bytes: int = 16 * 1024,
        initial_cwnd_segments: int = 10,
        on_complete: Callable[[IncastResult], None] | None = None,
    ) -> None:
        if not senders:
            raise SimulationError("incast needs at least one sender")
        self.senders = senders
        self.receiver = receiver
        self.bytes_per_sender = bytes_per_sender
        self.mss = mss
        self.segment_bytes = segment_bytes
        self.initial_cwnd_segments = initial_cwnd_segments
        self.on_complete = on_complete
        self.result = IncastResult(len(senders), bytes_per_sender)

    def start(self, at_time: float | None = None) -> None:
        engine: Engine = self.receiver.engine
        start = at_time if at_time is not None else engine.now
        engine.at(max(start, engine.now), self._launch)

    def _launch(self) -> None:
        for host in self.senders:
            sender, receiver = open_connection(
                host,
                self.receiver,
                DctcpControl(
                    mss=self.mss,
                    initial_cwnd_segments=self.initial_cwnd_segments,
                ),
                segment_bytes=self.segment_bytes,
                on_complete=self._one_done,
            )
            self.result.connections.append((sender, receiver))
            sender.send(self.bytes_per_sender)

    def _one_done(self) -> None:
        self.result.completed += 1
        if self.result.completed == len(self.senders):
            self.result.finish_time = self.receiver.engine.now
            if self.on_complete is not None:
                self.on_complete(self.result)

    @property
    def connections(self) -> list[tuple[TcpSender, TcpReceiver]]:
        return list(self.result.connections)
