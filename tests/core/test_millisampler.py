"""Tests for the Millisampler tc-filter state machine."""

from dataclasses import dataclass

import pytest

from repro.core.millisampler import (
    CostModel,
    Direction,
    Millisampler,
    PacketObservation,
    SamplerState,
)
from repro.core.run import RunMetadata
from repro.errors import SamplerError


def make_sampler(**kwargs) -> Millisampler:
    defaults = dict(
        meta=RunMetadata(host="h0", rack="r0", region="RegA"),
        sampling_interval=1e-3,
        buckets=10,
        cpus=2,
    )
    defaults.update(kwargs)
    return Millisampler(**defaults)


def obs(time, size=1000, direction=Direction.INGRESS, **kwargs) -> PacketObservation:
    return PacketObservation(
        time=time, direction=direction, size=size, flow_key=("f", 0), **kwargs
    )


class TestLifecycle:
    def test_initial_state_detached(self):
        assert make_sampler().state is SamplerState.DETACHED

    def test_attach_enable_cycle(self):
        sampler = make_sampler()
        sampler.attach()
        assert sampler.state is SamplerState.DISABLED
        sampler.enable()
        assert sampler.enabled

    def test_cannot_enable_detached(self):
        with pytest.raises(SamplerError):
            make_sampler().enable()

    def test_cannot_double_attach(self):
        sampler = make_sampler()
        sampler.attach()
        with pytest.raises(SamplerError):
            sampler.attach()

    def test_cannot_detach_mid_run(self):
        sampler = make_sampler()
        sampler.attach()
        sampler.enable()
        with pytest.raises(SamplerError):
            sampler.detach()

    def test_detached_filter_rejects_packets(self):
        with pytest.raises(SamplerError):
            make_sampler().observe(obs(0.0))

    def test_disabled_filter_fast_path(self):
        sampler = make_sampler()
        sampler.attach()
        sampler.observe(obs(0.0))
        assert sampler.stats.packets_skipped_disabled == 1
        assert sampler.stats.packets_processed == 0


class TestRunRecording:
    def test_first_packet_sets_start_time(self):
        sampler = make_sampler()
        sampler.attach()
        sampler.enable()
        assert sampler.start_time is None
        sampler.observe(obs(5.0))
        assert sampler.start_time == 5.0

    def test_bucket_assignment(self):
        sampler = make_sampler()
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(1.0, size=100))  # bucket 0
        sampler.observe(obs(1.0005, size=200))  # still bucket 0
        sampler.observe(obs(1.0031, size=300))  # bucket 3
        sampler.finish(now=1.1)
        run = sampler.read_run()
        assert run.in_bytes[0] == 300
        assert run.in_bytes[3] == 300

    def test_packet_past_window_clears_enabled_flag(self):
        sampler = make_sampler(buckets=5)
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(0.0))
        sampler.observe(obs(0.0051))  # past bucket 4
        assert not sampler.enabled
        assert sampler.stats.runs_completed == 1

    def test_overflow_packet_not_counted(self):
        sampler = make_sampler(buckets=5)
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(0.0, size=100))
        sampler.observe(obs(0.0060, size=999))
        run = sampler.read_run()
        assert run.in_bytes.sum() == 100

    def test_directions_and_flags(self):
        sampler = make_sampler()
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(0.0, size=100, direction=Direction.INGRESS))
        sampler.observe(obs(0.0, size=50, direction=Direction.INGRESS, ecn_marked=True))
        sampler.observe(obs(0.0, size=30, direction=Direction.INGRESS, retransmit=True))
        sampler.observe(obs(0.0, size=70, direction=Direction.EGRESS))
        sampler.observe(obs(0.0, size=20, direction=Direction.EGRESS, retransmit=True))
        sampler.finish(now=1.0)
        run = sampler.read_run()
        assert run.in_bytes[0] == 180
        assert run.in_ecn_bytes[0] == 50
        assert run.in_retx_bytes[0] == 30
        assert run.out_bytes[0] == 90
        assert run.out_retx_bytes[0] == 20

    def test_flow_counting_per_bucket(self):
        sampler = make_sampler()
        sampler.attach()
        sampler.enable()
        for i in range(5):
            sampler.observe(
                PacketObservation(
                    time=0.0, direction=Direction.INGRESS, size=10, flow_key=f"f{i}"
                )
            )
        sampler.finish(now=1.0)
        run = sampler.read_run()
        assert 4 <= run.conn_estimate[0] <= 6
        assert run.conn_estimate[1] == 0

    def test_flow_counting_disabled(self):
        sampler = make_sampler(count_flows=False)
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(0.0))
        sampler.finish(now=1.0)
        run = sampler.read_run()
        assert run.conn_estimate.sum() == 0

    def test_non_monotonic_clock_rejected(self):
        sampler = make_sampler()
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(5.0))
        with pytest.raises(SamplerError):
            sampler.observe(obs(4.9))

    def test_packet_under_one_interval_early_rejected(self):
        """A packet less than one interval before the run start is not
        counted in bucket 0."""
        sampler = make_sampler()
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(1.0, size=200))
        with pytest.raises(SamplerError, match="precedes run start"):
            sampler.observe(obs(0.9995, size=200))
        sampler.finish(now=1.1)
        assert sampler.read_run().in_bytes[0] == 200

    def test_cannot_read_mid_run(self):
        sampler = make_sampler()
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(0.0))
        with pytest.raises(SamplerError):
            sampler.read_run()

    def test_finish_before_window_elapsed_rejected(self):
        sampler = make_sampler()
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(0.0))
        with pytest.raises(SamplerError):
            sampler.finish(now=0.005)

    def test_per_cpu_counters_merge(self):
        sampler = make_sampler(cpus=4)
        sampler.attach()
        sampler.enable()
        for cpu in range(4):
            sampler.observe(obs(0.0, size=25, cpu=cpu))
        sampler.finish(now=1.0)
        assert sampler.read_run().in_bytes[0] == 100

    def test_second_run_after_first(self):
        sampler = make_sampler()
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(0.0, size=10))
        sampler.finish(now=1.0)
        first = sampler.read_run()
        sampler.enable()
        sampler.observe(obs(2.0, size=20))
        sampler.finish(now=3.0)
        second = sampler.read_run()
        assert first.in_bytes[0] == 10
        assert second.in_bytes[0] == 20
        assert second.meta.start_time == 2.0


class TestCostModel:
    def test_breakeven_near_paper(self):
        """Paper: Millisampler beats tcpdump after ~33,000 packets."""
        assert 30_000 <= CostModel().breakeven_packets() <= 36_000

    def test_run_cost_components(self):
        model = CostModel()
        assert model.run_cost_ns(0) == (model.map_read_ms + model.attach_detach_ms) * 1e6
        assert model.run_cost_ns(100) - model.run_cost_ns(0) == 100 * 88.0

    def test_no_flow_counting_is_cheaper(self):
        model = CostModel()
        assert model.run_cost_ns(1000, count_flows=False) < model.run_cost_ns(1000)

    def test_impossible_breakeven_rejected(self):
        model = CostModel(per_packet_full_ns=300.0)
        with pytest.raises(SamplerError):
            model.breakeven_packets()

    def test_memory_footprint_near_paper(self):
        """Paper: ~3.6 MB average in-kernel footprint."""
        sampler = make_sampler(cpus=26, buckets=2000)
        footprint_mb = sampler.memory_footprint_bytes / (1024 * 1024)
        assert 2.0 < footprint_mb < 5.0

    def test_cpu_accounting_accumulates(self):
        sampler = make_sampler()
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(0.0))
        assert sampler.stats.cpu_ns == pytest.approx(88.0)
        sampler.finish(1.0)
        sampler.read_run()
        assert sampler.stats.cpu_ns == pytest.approx(88.0 + 4.3e6)


@dataclass(frozen=True)
class _PodMetadata(RunMetadata):
    """RunMetadata extended the way a deployment might (regression rig)."""

    pod: str = ""


class TestReadRunMetadata:
    def test_read_run_preserves_extended_metadata(self):
        """read_run must flow every metadata field through one
        construction path: hand-copying fields silently dropped anything
        a RunMetadata extension carries (and its type)."""
        meta = _PodMetadata(host="h0", rack="r0", region="RegA", task="web/1", pod="pod7")
        sampler = make_sampler(meta=meta)
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(5.0, size=100))
        sampler.finish(now=6.0)
        run = sampler.read_run()
        assert isinstance(run.meta, _PodMetadata)
        assert run.meta.pod == "pod7"
        assert run.meta.task == "web/1"
        assert run.meta.start_time == 5.0

    def test_read_run_applies_sampler_interval_override(self):
        """The sampler's configured interval wins over the template's."""
        meta = RunMetadata(host="h0", sampling_interval=123.0)
        sampler = make_sampler(meta=meta, sampling_interval=2e-3)
        sampler.attach()
        sampler.enable()
        sampler.observe(obs(0.0, size=100))
        sampler.finish(now=1.0)
        assert sampler.read_run().meta.sampling_interval == 2e-3
