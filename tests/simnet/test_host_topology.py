"""Tests for hosts, tap chains, and rack topology assembly."""

import tracemalloc

import numpy as np
import pytest

from repro.config import SamplerConfig
from repro.core.counters import CounterSet
from repro.core.millisampler import Direction, Millisampler
from repro.core.run import RunMetadata
from repro.core.scheduler import RunScheduler
from repro.core.storage import HostRunStore
from repro.core.syncsampler import SampledHost
from repro.errors import SamplerError, SimulationError
from repro.simnet.host import Host
from repro.simnet.engine import Engine
from repro.simnet.packet import FlowKey, Packet
from repro.simnet.tap import MillisamplerTap, TapChain, rss_cpu
from repro.simnet.topology import build_rack


class RecordingTap:
    def __init__(self, log=None):
        self.seen = []
        self.log = log

    def on_packet(self, packet, direction, now):
        self.seen.append((packet.packet_id, direction, now))
        if self.log is not None:
            self.log.append(self)


class CountingMillisamplerTap(MillisamplerTap):
    """A sampler tap that counts the host's calls into it."""

    calls = 0

    def on_packet(self, packet, direction, now):
        self.calls += 1
        super().on_packet(packet, direction, now)


class TestTapChain:
    def test_dispatch_order(self):
        log = []
        host = Host(Engine(), "h0")
        first, second = RecordingTap(log), RecordingTap(log)
        host.taps.attach(first)
        host.taps.attach(second)
        host.deliver(Packet("a", "h0", 100, FlowKey("a", "h0")))
        assert log == [first, second]

    def test_double_attach_rejected(self):
        chain = TapChain()
        tap = RecordingTap()
        chain.attach(tap)
        with pytest.raises(ValueError):
            chain.attach(tap)

    def test_detach(self):
        chain = TapChain()
        tap = RecordingTap()
        chain.attach(tap)
        chain.detach(tap)
        assert len(chain) == 0

    def test_taps_without_a_sampler_are_always_live(self):
        chain = TapChain()
        tap = RecordingTap()
        chain.attach(tap)
        assert chain.live == (tap,)
        chain.detach(tap)
        assert chain.live == ()

    def test_rss_cpu_consistent_per_flow(self):
        packet1 = Packet("a", "b", 10, FlowKey("a", "b", 1, 2))
        packet2 = Packet("a", "b", 99, FlowKey("a", "b", 1, 2))
        assert rss_cpu(packet1, 8) == rss_cpu(packet2, 8)


class TestHost:
    def test_send_requires_connection(self):
        host = Host(Engine(), "h0")
        with pytest.raises(SimulationError):
            host.send(Packet("h0", "x", 100, FlowKey("h0", "x")))

    def test_send_rejects_spoofed_source(self):
        host = Host(Engine(), "h0")
        host.connect(lambda p: None)
        with pytest.raises(SimulationError):
            host.send(Packet("other", "x", 100, FlowKey("other", "x")))

    def test_taps_see_both_directions(self):
        engine = Engine()
        host = Host(engine, "h0")
        host.connect(lambda p: None)
        tap = RecordingTap()
        host.taps.attach(tap)
        host.send(Packet("h0", "x", 100, FlowKey("h0", "x")))
        host.deliver(Packet("x", "h0", 200, FlowKey("x", "h0")))
        directions = [d for _, d, _ in tap.seen]
        assert Direction.EGRESS in directions
        assert Direction.INGRESS in directions

    def test_flow_demux(self):
        host = Host(Engine(), "h0")
        flow = FlowKey("x", "h0", 5, 6)
        got = []
        host.register_flow(flow, got.append)
        fallback = []
        host.default_handler = fallback.append
        host.deliver(Packet("x", "h0", 100, flow))
        host.deliver(Packet("y", "h0", 100, FlowKey("y", "h0", 7, 8)))
        assert len(got) == 1
        assert len(fallback) == 1

    def test_duplicate_flow_registration_rejected(self):
        host = Host(Engine(), "h0")
        flow = FlowKey("x", "h0")
        host.register_flow(flow, lambda p: None)
        with pytest.raises(SimulationError):
            host.register_flow(flow, lambda p: None)


def sampled_host(period=1.0):
    """A host whose chain is [recording, sampler, recording] taps, with
    the sampler's user-space agent; the sampler starts detached."""
    engine = Engine()
    host = Host(engine, "h0")
    host.connect(lambda packet: None)
    sampler = Millisampler(RunMetadata(host="h0", rack="r", region="RegA"), buckets=10)
    scheduler = RunScheduler(period=period, run_duration=sampler.duration, first_start=0.5)
    agent = SampledHost(sampler=sampler, scheduler=scheduler, store=HostRunStore("h0"))
    before, after = RecordingTap(), RecordingTap()
    tap = CountingMillisamplerTap(sampler, host.clock)
    for each in (before, tap, after):
        host.taps.attach(each)
    return host, agent, tap, before, after


def exchange(host):
    host.send(Packet("h0", "x", 100, FlowKey("h0", "x")))
    host.deliver(Packet("x", "h0", 200, FlowKey("x", "h0")))


class TestDetachedFilterLeavesChain:
    """Section 4.1: "Detaching the tc filter ensures that no CPU time is
    used by the Millisampler while it is disabled"."""

    def test_detached_sampler_tap_gets_no_call(self):
        host, _, tap, before, after = sampled_host()
        exchange(host)
        assert tap.calls == 0
        assert host.taps.live == (before, after)
        assert len(before.seen) == len(after.seen) == 2

    def test_poll_attach_and_detach_move_the_tap(self):
        host, agent, tap, before, after = sampled_host()
        agent.poll(0.5)  # the periodic run comes due: attach and enable
        assert agent.sampler.enabled
        assert host.taps.live == (before, tap, after)
        exchange(host)
        assert tap.calls == 2
        assert agent.sampler.stats.packets_processed == 2
        # The run's window elapses; the agent stores it and detaches.
        agent.poll(0.5 + agent.sampler.duration + 1e-3)
        assert agent.sampler.state.value == "detached"
        assert host.taps.live == (before, after)
        exchange(host)
        assert tap.calls == 2
        assert len(agent.store.start_times()) == 1

    def test_len_counts_every_attached_tap(self):
        host, agent, tap, _, _ = sampled_host()
        assert len(host.taps) == 3
        agent.poll(0.5)
        assert len(host.taps) == 3
        host.taps.detach(tap)
        assert len(host.taps) == 2
        assert agent.sampler.watchers == []

    def test_stale_chain_raises_instead_of_skipping(self):
        """If the chain missed a detach, observe() refuses the packet
        rather than the tap silently dropping it."""
        host, agent, tap, _, _ = sampled_host()
        agent.poll(0.5)
        agent.sampler.abort()
        agent.sampler.watchers.clear()  # the chain stops hearing moves
        agent.sampler.detach()
        with pytest.raises(SamplerError, match="detached"):
            host.deliver(Packet("x", "h0", 200, FlowKey("x", "h0")))


class TestBuildRack:
    def test_rack_fully_wired(self):
        rack = build_rack(servers=4)
        assert len(rack.hosts) == 4
        assert len(rack.sampled_hosts) == 4
        assert set(rack.switch.servers) == {host.name for host in rack.hosts}

    def test_hosts_can_exchange_traffic(self):
        rack = build_rack(servers=2)
        received = []
        rack.hosts[1].default_handler = received.append
        rack.hosts[0].send(
            Packet(rack.hosts[0].name, rack.hosts[1].name, 1000,
                   FlowKey(rack.hosts[0].name, rack.hosts[1].name))
        )
        rack.engine.run()
        assert len(received) == 1

    def test_millisampler_attached_to_each_host(self):
        rack = build_rack(servers=3)
        for host in rack.hosts:
            assert len(host.taps) == 1

    def test_clock_offsets_are_sub_millisecond(self):
        rack = build_rack(servers=10, rng=np.random.default_rng(0))
        offsets = [abs(host.clock.offset) for host in rack.hosts]
        assert max(offsets) < 1e-3

    def test_sampler_config_respected(self):
        rack = build_rack(servers=2, sampler_config=SamplerConfig(buckets=500, cpus=2))
        assert rack.sampled_hosts[0].sampler.buckets == 500
        assert rack.sampled_hosts[0].sampler.cpus == 2

    def test_building_a_rack_allocates_no_sampler_maps(self):
        """Samplers allocate their counter maps and sketch words on the
        first enable(): a 93-host rack whose samplers never run holds
        less than one sampler's maps (2.9 MB each at the defaults)."""
        tracemalloc.start()
        try:
            rack = build_rack(servers=93)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sampler = rack.sampled_hosts[0].sampler
        footprint = CounterSet.footprint(sampler.cpus, sampler.buckets)
        assert sampler.memory_footprint_bytes == footprint
        assert peak < footprint
        # A sampler that never ran has no run to read.
        with pytest.raises(SamplerError):
            sampler.read_run()

    def test_lookup_helpers(self):
        rack = build_rack(servers=2)
        name = rack.hosts[1].name
        assert rack.host_by_name(name) is rack.hosts[1]
        assert rack.sampled_host_by_name(name).name == name
        with pytest.raises(SimulationError):
            rack.host_by_name("ghost")

    def test_invalid_server_count(self):
        with pytest.raises(SimulationError):
            build_rack(servers=0)
