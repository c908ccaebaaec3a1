"""Tests for the SyncMillisampler control plane."""

import numpy as np
import pytest

from repro.core.millisampler import Millisampler
from repro.core.run import RunMetadata
from repro.core.scheduler import RunScheduler
from repro.core.storage import HostRunStore
from repro.core.syncsampler import SampledHost, SyncMillisampler
from repro.errors import SamplerError
from tests.conftest import make_run


def make_host(name: str, buckets: int = 10) -> SampledHost:
    sampler = Millisampler(
        RunMetadata(host=name, rack="r0", region="RegA"),
        sampling_interval=1e-3,
        buckets=buckets,
        cpus=1,
    )
    scheduler = RunScheduler(period=60.0, run_duration=sampler.duration, first_start=1e9)
    return SampledHost(sampler=sampler, scheduler=scheduler, store=HostRunStore(name))


class TestSyncMillisampler:
    def test_request_needs_lead_time(self):
        sync = SyncMillisampler()
        hosts = [make_host("h0")]
        with pytest.raises(SamplerError):
            sync.request_collection(hosts, "r0", "RegA", start_time=0.005, now=0.0)

    def test_request_needs_hosts(self):
        with pytest.raises(SamplerError):
            SyncMillisampler().request_collection([], "r0", "RegA", 1.0, now=0.0)

    def test_collection_lifecycle(self):
        sync = SyncMillisampler()
        hosts = [make_host(f"h{i}") for i in range(3)]
        sync_id = sync.request_collection(hosts, "r0", "RegA", start_time=1.0, now=0.0)
        assert sync.pending_ids() == [sync_id]

        # Drive each host: poll at the start time to begin, feed packets,
        # poll after the window to harvest.
        from repro.core.millisampler import Direction, PacketObservation

        for host in hosts:
            host.poll(now=1.0)
            assert host.sampler.enabled
            host.sampler.observe(
                PacketObservation(
                    time=1.0, direction=Direction.INGRESS, size=500, flow_key="f"
                )
            )
        for host in hosts:
            host.poll(now=1.1)
        sync_run = sync.assemble(sync_id)
        assert sync_run.servers == 3
        assert sync_run.rack == "r0"
        assert sync.pending_ids() == []

    def test_assemble_unknown_id_rejected(self):
        with pytest.raises(SamplerError):
            SyncMillisampler().assemble("nope")

    def test_assemble_picks_sync_run_over_adjacent_periodic_run(self):
        """Regression: a *periodic* run that started just inside the
        50 ms clock-skew tolerance window must not be mistaken for the
        sync run.  The host's agent records which stored run answered
        the sync request, so assembly matches exactly."""
        from repro.core.millisampler import Direction, PacketObservation

        sync = SyncMillisampler()
        host = make_host("h0")
        sync_id = sync.request_collection(
            [host], "r0", "RegA", start_time=1.0, now=0.0
        )
        # A periodic run landed in the store 30 ms before the sync start
        # — inside the tolerance, so naive earliest-candidate selection
        # would pick it.
        periodic = make_run(np.ones(10), host="h0", start_time=0.97)
        host.store.store(periodic)

        host.poll(now=1.0)  # the sync run begins
        host.sampler.observe(
            PacketObservation(
                time=1.0002, direction=Direction.INGRESS, size=500, flow_key="f"
            )
        )
        host.poll(now=1.02)  # harvest

        sync_run = sync.assemble(sync_id)
        chosen = sync_run.runs[0]
        assert chosen.meta.start_time != periodic.meta.start_time
        assert chosen.meta.start_time == pytest.approx(1.0, abs=50e-3)
        assert chosen.in_bytes.sum() == 500

    def test_assemble_fallback_picks_nearest_candidate(self):
        """Runs stored outside the poll loop (replayed from disk) have
        no recorded sync id; the fallback picks the candidate nearest
        the requested start, not the earliest in the window."""
        sync = SyncMillisampler()
        host = make_host("h0")
        sync_id = sync.request_collection(
            [host], "r0", "RegA", start_time=1.0, now=0.0
        )
        host.store.store(make_run(np.ones(10), host="h0", start_time=0.97))
        host.store.store(make_run(np.full(10, 2.0), host="h0", start_time=1.0005))
        sync_run = sync.assemble(sync_id)
        assert sync_run.runs[0].meta.start_time == pytest.approx(1.0005)

    def test_later_periodic_run_does_not_take_idle_hosts_sync_slot(self):
        """Regression: a host that saw no packet in the sync window but
        recorded a periodic run before assembly contributes the all-zero
        run, not that later run (whose window shares no time with the
        other hosts', so alignment raised)."""
        from repro.core.millisampler import Direction, PacketObservation

        sync = SyncMillisampler()
        busy = make_host("h0")
        idle = make_host("h1")
        idle.scheduler = RunScheduler(
            period=60.0, run_duration=idle.sampler.duration, first_start=1.5
        )
        sync_id = sync.request_collection(
            [busy, idle], "r0", "RegA", start_time=1.0, now=0.0
        )
        for host in (busy, idle):
            host.poll(now=1.0)
        busy.sampler.observe(
            PacketObservation(time=1.0, direction=Direction.INGRESS, size=500, flow_key="f")
        )
        for host in (busy, idle):
            host.poll(now=1.1)
        # The idle host's next periodic run records traffic at 1.5 s.
        idle.poll(now=1.5)
        idle.sampler.observe(
            PacketObservation(time=1.5, direction=Direction.INGRESS, size=700, flow_key="g")
        )
        idle.poll(now=1.6)
        assert idle.store.start_times() == [1.5]

        sync_run = sync.assemble(sync_id)
        assert sync_run.servers == 2
        busy_run, idle_run = sync_run.runs
        assert busy_run.in_bytes.sum() == 500
        assert idle_run.in_bytes.sum() == 0
        assert idle_run.meta.host == "h1"

    def test_assemble_synthesizes_zero_run_for_idle_host(self):
        """A host that saw no traffic contributes an all-zero run — an
        idle server is data (zero contention), not an error."""
        sync = SyncMillisampler()
        hosts = [make_host("h0")]
        sync_id = sync.request_collection(hosts, "r0", "RegA", start_time=1.0, now=0.0)
        sync_run = sync.assemble(sync_id)
        assert sync_run.servers == 1
        assert sync_run.runs[0].in_bytes.sum() == 0

    def test_assemble_from_runs_aligns(self):
        runs = [
            make_run(np.arange(10.0), host="h0", start_time=0.0),
            make_run(np.arange(10.0), host="h1", start_time=0.0004),
        ]
        sync_run = SyncMillisampler.assemble_from_runs("r0", "RegA", runs, hour=7)
        assert sync_run.hour == 7
        assert len({r.buckets for r in sync_run.runs}) == 1

    def test_lead_must_cover_run_duration(self):
        with pytest.raises(SamplerError):
            SyncMillisampler(lead_runs=0.5)


class TestSampledHostPolling:
    def test_idle_run_force_finished_and_stored(self):
        host = make_host("h0")
        host.scheduler.request_sync_run(start_time=1.0, sync_id="s", now=0.0)
        host.poll(now=1.0)
        from repro.core.millisampler import Direction, PacketObservation

        host.sampler.observe(
            PacketObservation(time=1.0, direction=Direction.INGRESS, size=10, flow_key="f")
        )
        # Window is 10 ms; poll at 1.02 must finish, store, and detach.
        host.poll(now=1.02)
        assert len(host.store) == 1
        assert host.sampler.state.value == "detached"

    def test_no_traffic_run_not_stored(self):
        """A run that never saw a packet has no start time; polling
        should not store a phantom run."""
        host = make_host("h0")
        host.scheduler.request_sync_run(start_time=1.0, sync_id="s", now=0.0)
        host.poll(now=1.0)
        host.poll(now=2.0)
        assert len(host.store) == 0


class TestSyncPriority:
    """A periodic run starts at its first packet, so it can still be
    recording after the slot its scheduler reserved has ended."""

    def late_periodic_host(self):
        from repro.core.millisampler import Direction, PacketObservation

        host = make_host("h0")
        host.scheduler = RunScheduler(period=1.0, run_duration=10e-3, first_start=0.0)
        host.poll(now=0.0)  # periodic slot [0, 10 ms) begins
        # Its first packet arrives late: the run now ends at 18 ms.
        host.sampler.observe(
            PacketObservation(time=8e-3, direction=Direction.INGRESS, size=10, flow_key="f")
        )
        return host

    def test_sync_run_preempts_a_periodic_run_still_recording(self):
        from repro.core.millisampler import Direction, PacketObservation

        host = self.late_periodic_host()
        host.scheduler.request_sync_run(start_time=12e-3, sync_id="s", now=1e-3)
        host.poll(now=12e-3)
        assert host.sampler.enabled
        assert host.sampler.start_time is None  # a fresh run, not the periodic one
        assert host.sampler.stats.runs_aborted == 1
        host.sampler.observe(
            PacketObservation(time=12.5e-3, direction=Direction.INGRESS, size=7, flow_key="f")
        )
        host.poll(now=30e-3)
        # Only the sync run is stored; the cut-off periodic run is not.
        assert host.store.start_times() == [12.5e-3]
        assert host.sync_run_start("s") == 12.5e-3

    def test_periodic_slot_never_interrupts_a_recording_run(self):
        host = self.late_periodic_host()
        host.scheduler = RunScheduler(period=10e-3, run_duration=10e-3, first_start=10e-3)
        host.poll(now=10e-3)  # the next periodic slot is due mid-run
        assert host.sampler.enabled
        assert host.sampler.start_time == 8e-3
        assert host.sampler.stats.runs_aborted == 0

    def test_abort_needs_a_run_in_progress(self):
        host = make_host("h0")
        host.sampler.attach()
        with pytest.raises(SamplerError, match="no run in progress"):
            host.sampler.abort()
