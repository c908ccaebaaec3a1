"""Tests for the packet-level traffic applications."""

import numpy as np
import pytest

from repro import units
from repro.errors import SimulationError
from repro.simnet.topology import build_rack
from repro.workload.flows import (
    BurstGeneratorClient,
    BurstServer,
    IncastApp,
    MulticastBurster,
)
from tests.simnet.test_packet_pins import incast


class TestMulticastBurster:
    def test_periodic_bursts_reach_subscribers(self):
        rack = build_rack(servers=4)
        received = []
        rack.hosts[1].default_handler = received.append
        rack.switch.join_multicast("g", rack.hosts[1].name)
        burster = MulticastBurster(
            rack.hosts[0], "g", burst_bytes=32 * 1024, period=50e-3
        )
        burster.start()
        rack.engine.run_until(0.26)
        assert burster.bursts_sent >= 5
        assert len(received) > 0

    def test_stop_halts_bursts(self):
        rack = build_rack(servers=2)
        burster = MulticastBurster(rack.hosts[0], "g", period=10e-3)
        burster.start()
        rack.engine.run_until(0.015)
        burster.stop()
        sent = burster.bursts_sent
        rack.engine.run_until(0.1)
        assert burster.bursts_sent == sent

    def test_double_start_rejected(self):
        rack = build_rack(servers=2)
        burster = MulticastBurster(rack.hosts[0], "g")
        burster.start()
        with pytest.raises(SimulationError):
            burster.start()


class TestBurstServer:
    def test_burst_volume_delivered(self):
        rack = build_rack(servers=2)
        received_bytes = []
        rack.hosts[1].default_handler = lambda p: received_bytes.append(p.size)
        server = BurstServer(rack.hosts[0])
        server.transmit_burst(rack.hosts[1].name, volume=100_000)
        rack.engine.run()
        assert sum(received_bytes) == 100_000

    def test_paced_burst_duration(self):
        """A 1.8 MB burst at 12.5 Gbps should span ~1.2 ms on the wire."""
        rack = build_rack(servers=2)
        arrival_times = []
        rack.hosts[1].default_handler = lambda p: arrival_times.append(rack.engine.now)
        server = BurstServer(rack.hosts[0])
        server.transmit_burst(
            rack.hosts[1].name, volume=int(1.8 * units.MB), rate=units.SERVER_LINK_RATE
        )
        rack.engine.run()
        duration = max(arrival_times) - min(arrival_times)
        assert 0.8e-3 < duration < 2.0e-3

    def test_invalid_volume_rejected(self):
        rack = build_rack(servers=2)
        with pytest.raises(SimulationError):
            BurstServer(rack.hosts[0]).transmit_burst(rack.hosts[1].name, volume=0)


class TestBurstGeneratorClient:
    def test_requests_on_local_clock(self):
        rack = build_rack(servers=2, rng=np.random.default_rng(3))
        server = BurstServer(rack.hosts[0])
        client = BurstGeneratorClient(
            rack.hosts[1], server, burst_bytes=10_000, period=50e-3
        )
        client.start(first_request=0.01)
        rack.engine.run_until(0.3)
        assert client.requests_sent >= 5
        assert server.bursts_served >= 5


class TestIncastApp:
    def test_all_senders_complete(self):
        rack = build_rack(servers=6)
        results = []
        app = IncastApp(
            senders=rack.hosts[1:6],
            receiver=rack.hosts[0],
            bytes_per_sender=64 * 1024,
            on_complete=results.append,
        )
        app.start()
        rack.engine.run_until(2.0)
        assert results
        assert results[0].completed == 5
        assert results[0].finish_time is not None

    def test_needs_senders(self):
        rack = build_rack(servers=2)
        with pytest.raises(SimulationError):
            IncastApp(senders=[], receiver=rack.hosts[0])

    def test_loss_totals_count_senders_still_running(self):
        """The result's retransmission and timeout totals are the
        connections' own counts at any time, not zeros until the last
        sender finishes: at 20 ms into the seed-11 fan-in-92 incast the
        buffer has dropped 143 packets and most senders are still
        recovering."""
        rack, app = incast(92, 2)
        rack.engine.run_until(20e-3)
        senders = [sender for sender, _ in app.connections]
        assert rack.switch.counters.discard_packets == 143
        assert app.result.completed == 2
        assert app.result.total_retransmissions == sum(s.retransmissions for s in senders) == 1
        assert app.result.total_timeouts == sum(s.timeouts for s in senders)

    def test_deferred_start(self):
        rack = build_rack(servers=3)
        app = IncastApp(rack.hosts[1:3], rack.hosts[0], bytes_per_sender=10_000)
        app.start(at_time=0.5)
        rack.engine.run_until(0.4)
        assert app.result.completed == 0
        rack.engine.run_until(2.0)
        assert app.result.completed == 2
