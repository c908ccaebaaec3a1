"""Tests for the trace tap and sampler-vs-trace cross-validation."""

import numpy as np
import pytest

from repro.core.millisampler import Direction
from repro.errors import SimulationError
from repro.simnet.packet import FlowKey, Packet
from repro.simnet.topology import build_rack
from repro.simnet.tcp import DctcpControl, open_connection
from tests.simnet.trace_reference import TraceTap


class TestTraceTap:
    def test_records_packets(self):
        tap = TraceTap()
        packet = Packet("a", "b", 100, FlowKey("a", "b", 1, 2))
        tap.on_packet(packet, Direction.INGRESS, 1.0)
        assert len(tap.entries) == 1
        assert tap.entries[0].size == 100
        assert tap.total_bytes() == 100

    def test_direction_filter(self):
        tap = TraceTap()
        packet = Packet("a", "b", 100, FlowKey("a", "b"))
        tap.on_packet(packet, Direction.INGRESS, 1.0)
        tap.on_packet(packet, Direction.EGRESS, 1.0)
        assert tap.total_bytes(Direction.INGRESS) == 100
        assert tap.total_bytes() == 200

    def test_truncation_guard(self):
        tap = TraceTap(max_entries=2)
        packet = Packet("a", "b", 100, FlowKey("a", "b"))
        for _ in range(5):
            tap.on_packet(packet, Direction.INGRESS, 1.0)
        assert len(tap.entries) == 2
        assert tap.truncated

    def test_bucketize(self):
        tap = TraceTap()
        packet = Packet("a", "b", 100, FlowKey("a", "b"))
        tap.on_packet(packet, Direction.INGRESS, 0.0005)
        tap.on_packet(packet, Direction.INGRESS, 0.0015)
        tap.on_packet(packet, Direction.INGRESS, 0.0016)
        series = tap.bucketize(1e-3, start=0.0, buckets=3)
        assert series.tolist() == [100, 200, 0]

    def test_bucketize_validation(self):
        with pytest.raises(SimulationError):
            TraceTap().bucketize(0)

    def test_flows_and_clear(self):
        tap = TraceTap()
        tap.on_packet(Packet("a", "b", 1, FlowKey("a", "b", 1, 1)), Direction.INGRESS, 0)
        tap.on_packet(Packet("a", "b", 1, FlowKey("a", "b", 2, 2)), Direction.INGRESS, 0)
        assert len(tap.flows()) == 2
        tap.clear()
        assert tap.entries == []


class TestSamplerAgainstGroundTruth:
    def test_sampler_counters_match_trace_exactly(self):
        """Millisampler's per-bucket counters must equal the ground-truth
        trace bucketization — the sampler loses no bytes."""
        rack = build_rack(servers=2, rng=np.random.default_rng(0))
        receiver = rack.hosts[1]
        trace = TraceTap()
        receiver.taps.attach(trace)

        sampled = rack.sampled_host_by_name(receiver.name)
        sampler = sampled.sampler
        sampler.attach()
        sampler.enable()

        sender, _ = open_connection(rack.hosts[0], receiver, DctcpControl(mss=1448))
        sender.send(1_000_000)
        rack.engine.run_until(0.5)
        sampler.finish(now=rack.engine.now + sampler.duration)
        run = sampler.read_run()

        # Compare on the host-clock time base the sampler used.
        start = sampler.start_time
        clock = receiver.clock
        truth = np.zeros(run.buckets)
        for entry in trace.entries:
            if entry.direction is not Direction.INGRESS:
                continue
            bucket = int((clock.read(entry.time) - start) / run.meta.sampling_interval)
            if 0 <= bucket < run.buckets:
                truth[bucket] += entry.size
        np.testing.assert_allclose(run.in_bytes, truth)
