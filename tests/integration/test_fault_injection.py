"""Fault-injection tests for the diagnostic scenarios Section 4 reports.

The paper: Millisampler's week of host-local history "permits
diagnostic analysis of atypical events, including firmware bugs,
kernel locking errors, and large congestion events.  For instance,
Millisampler helped uncover a NIC firmware bug by isolating examples
of packet loss although utilization was low at fine time-scales."
And Section 4.6: "we have observed locking bugs in the kernel that
prevent any handling of network interrupts; in these cases
Millisampler will see no data even though the network interface card
is receiving, which can lead to additional apparent bursts."
"""


from repro.core.millisampler import Direction, Millisampler, PacketObservation
from repro.core.run import RunMetadata
from repro import units
from tests.analysis.summary_reference import detect_bursts


def feed_steady_traffic(sampler, rate_fraction, start, duration, blackout=None,
                        segment=16 * 1024):
    """Feed a steady stream at ``rate_fraction`` of line rate; during
    ``blackout`` (a (start, end) window) the kernel processes nothing and
    the pent-up bytes are delivered in a batch when it recovers — the
    soft-irq stall signature."""
    line_rate = units.SERVER_LINK_RATE
    interval = segment / (line_rate * rate_fraction)
    time = start
    pending = 0
    while time < start + duration:
        in_blackout = blackout is not None and blackout[0] <= time < blackout[1]
        if in_blackout:
            pending += segment
        else:
            if pending:
                # Recovery: the backlog is handed to the stack at once.
                sampler.observe(
                    PacketObservation(
                        time=time, direction=Direction.INGRESS,
                        size=pending, flow_key="stall",
                    )
                )
                pending = 0
            sampler.observe(
                PacketObservation(
                    time=time, direction=Direction.INGRESS,
                    size=segment, flow_key="steady",
                )
            )
        time += interval


def make_sampler(buckets=200):
    sampler = Millisampler(
        RunMetadata(host="diag"), sampling_interval=1e-3, buckets=buckets, cpus=2
    )
    sampler.attach()
    sampler.enable()
    return sampler


class TestKernelStallArtifact:
    def test_blackout_shows_gap_then_apparent_burst(self):
        """A soft-irq stall makes smooth 30% traffic look like: silence,
        then a burst — the Section 4.6 artifact, reproduced."""
        sampler = make_sampler()
        feed_steady_traffic(
            sampler, rate_fraction=0.3, start=0.0, duration=0.15,
            blackout=(0.05, 0.08),
        )
        sampler.finish(now=0.3)
        run = sampler.read_run()

        utilization = run.ingress_utilization()
        stalled = utilization[51:79]
        assert stalled.max() == 0.0  # the gap: NIC receiving, kernel silent
        bursts = detect_bursts(run)
        recovery_bursts = [b for b in bursts if 78 <= b.start <= 82]
        assert recovery_bursts  # the pent-up batch looks like a burst

    def test_healthy_stream_has_no_bursts(self):
        sampler = make_sampler()
        feed_steady_traffic(sampler, rate_fraction=0.3, start=0.0, duration=0.15)
        sampler.finish(now=0.3)
        run = sampler.read_run()
        assert detect_bursts(run) == []


class TestFirmwareBugSignature:
    def test_loss_at_low_utilization_is_isolatable(self):
        """The NIC-firmware-bug signature: retransmissions while
        fine-timescale utilization stays low — distinguishable from
        congestion loss precisely because Millisampler shows the link
        was NOT bursty when the loss happened."""
        sampler = make_sampler()
        line = units.SERVER_LINK_RATE
        # Smooth 10% traffic with periodic retransmissions (the NIC is
        # corrupting packets, not overflowing a queue).
        for bucket in range(150):
            time = bucket * 1e-3
            sampler.observe(
                PacketObservation(
                    time=time, direction=Direction.INGRESS,
                    size=int(0.1 * line * 1e-3), flow_key="app",
                )
            )
            if bucket % 10 == 5:
                sampler.observe(
                    PacketObservation(
                        time=time + 1e-4, direction=Direction.INGRESS,
                        size=3000, flow_key="app", retransmit=True,
                    )
                )
        sampler.finish(now=0.3)
        run = sampler.read_run()

        # Retransmissions present...
        assert run.in_retx_bytes.sum() > 0
        # ...but no bucket with a retransmission was anywhere near bursty.
        retx_buckets = run.in_retx_bytes > 0
        assert run.ingress_utilization()[retx_buckets].max() < 0.2
        # Congestion-loss bursts would be flagged; here none exist.
        assert detect_bursts(run) == []
