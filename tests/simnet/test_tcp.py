"""Tests for the TCP stacks: reliability, loss recovery, DCTCP, Cubic."""

import pytest

from repro import units
from repro.config import BufferConfig, RackConfig
from repro.core.millisampler import Direction
from repro.simnet.engine import Engine
from repro.simnet.host import Host
from repro.simnet.packet import FlowKey, Packet
from repro.simnet.tcp import CubicControl, DctcpControl, RenoControl, open_connection
from repro.simnet.tcp.base import TcpSender
from repro.simnet.topology import build_rack


def run_transfer(nbytes, control_factory, servers=2, rack_config=None, until=2.0):
    rack = build_rack(servers=servers, rack_config=rack_config)
    sender, receiver = open_connection(
        rack.hosts[0], rack.hosts[1], control_factory()
    )
    sender.send(nbytes)
    rack.engine.run_until(until)
    return rack, sender, receiver


class TestReliableDelivery:
    @pytest.mark.parametrize(
        "control_factory",
        [
            lambda: RenoControl(mss=1448),
            lambda: DctcpControl(mss=1448),
            lambda: CubicControl(mss=1448),
        ],
        ids=["reno", "dctcp", "cubic"],
    )
    def test_delivers_all_bytes(self, control_factory):
        _, sender, receiver = run_transfer(1_000_000, control_factory)
        assert sender.done
        assert receiver.received_payload == 1_000_000

    def test_completion_callback_fires_once(self):
        rack = build_rack(servers=2)
        completions = []
        sender, _ = open_connection(
            rack.hosts[0],
            rack.hosts[1],
            DctcpControl(mss=1448),
            on_complete=lambda: completions.append(rack.engine.now),
        )
        sender.send(100_000)
        rack.engine.run_until(1.0)
        assert len(completions) == 1

    def test_multiple_sends_accumulate(self):
        rack = build_rack(servers=2)
        sender, receiver = open_connection(
            rack.hosts[0], rack.hosts[1], DctcpControl(mss=1448)
        )
        sender.send(50_000)
        rack.engine.run_until(0.5)
        sender.send(50_000)
        rack.engine.run_until(1.5)
        assert receiver.received_payload == 100_000


class TestLossRecovery:
    def _tiny_buffer_rack(self):
        """A rack whose ToR buffer is small enough to force loss."""
        config = RackConfig(
            servers=8,
            buffer=BufferConfig(
                shared_bytes=60_000,
                dedicated_bytes_per_queue=0,
                alpha=1.0,
                ecn_threshold_bytes=1e12,  # disable ECN: force real loss
            ),
        )
        return build_rack(servers=8, rack_config=config)

    def test_incast_causes_retransmissions_and_recovers(self):
        rack = self._tiny_buffer_rack()
        receivers = []
        senders = []
        for host in rack.hosts[1:6]:
            sender, receiver = open_connection(
                host, rack.hosts[0], RenoControl(mss=1448, initial_cwnd_segments=40),
                segment_bytes=8 * 1024,
            )
            sender.send(400_000)
            senders.append(sender)
            receivers.append(receiver)
        rack.engine.run_until(3.0)
        assert all(sender.done for sender in senders)
        assert sum(receiver.received_payload for receiver in receivers) == 5 * 400_000
        assert sum(sender.retransmissions for sender in senders) > 0
        assert rack.switch.counters.discard_packets > 0

    def test_retransmit_bit_set_on_retransmissions(self):
        """Section 4.2: retransmitted packets carry the label bit, which
        the sampler counts."""
        rack = self._tiny_buffer_rack()
        senders = []
        for host in rack.hosts[1:6]:
            sender, _ = open_connection(
                host, rack.hosts[0], RenoControl(mss=1448, initial_cwnd_segments=40),
                segment_bytes=8 * 1024,
            )
            sender.send(400_000)
            senders.append(sender)
        rack.engine.run_until(3.0)
        retx_seen = rack.hosts[0].received_bytes  # sanity: traffic flowed
        assert retx_seen > 0
        total_retx = sum(sender.retransmissions for sender in senders)
        assert total_retx > 0


class TestDctcp:
    def test_ecn_reduces_window_without_loss(self):
        """DCTCP backs off on marks: with a low ECN threshold the window
        converges instead of growing until loss."""
        config = RackConfig(
            servers=4,
            buffer=BufferConfig(
                shared_bytes=units.mb(3.6),
                dedicated_bytes_per_queue=units.kb(64),
                alpha=1.0,
                ecn_threshold_bytes=units.kb(120),
            ),
        )
        rack = build_rack(servers=4, rack_config=config)
        # Two senders into one receiver: the 2:1 fan-in builds a queue
        # (a single flow over equal-speed links cannot).
        senders = []
        for host in rack.hosts[1:3]:
            sender, _ = open_connection(host, rack.hosts[0], DctcpControl(mss=1448))
            sender.send(4_000_000)
            senders.append(sender)
        rack.engine.run_until(1.0)
        assert all(sender.done for sender in senders)
        assert rack.switch.counters.ecn_marked_bytes > 0
        assert rack.switch.counters.discard_packets == 0
        assert any(sender.control.alpha > 0.0 for sender in senders)

    def test_alpha_ewma_update(self):
        control = DctcpControl(mss=1000, gain=0.5)
        control._window_end_bytes = 1000
        control.on_ack(1000, ecn_echo=True, now=0.0, rtt=1e-4)
        assert control.alpha == pytest.approx(0.5)

    def test_unmarked_windows_decay_alpha(self):
        control = DctcpControl(mss=1000, gain=0.5)
        control.alpha = 0.8
        control._window_end_bytes = 1000
        control.on_ack(1000, ecn_echo=False, now=0.0, rtt=1e-4)
        assert control.alpha == pytest.approx(0.4)

    def test_marked_window_reduces_cwnd_proportionally(self):
        control = DctcpControl(mss=1000, gain=1.0)
        start_cwnd = control.cwnd
        control._window_end_bytes = 1000
        control.on_ack(1000, ecn_echo=True, now=0.0, rtt=1e-4)
        # alpha becomes 1.0; cwnd scales by (1 - 1/2).
        assert control.cwnd == pytest.approx(start_cwnd / 2)

    def test_invalid_gain_rejected(self):
        with pytest.raises(ValueError):
            DctcpControl(mss=1000, gain=0.0)


class TestCubic:
    def test_loss_applies_beta(self):
        control = CubicControl(mss=1000)
        control.ssthresh = 0  # force congestion avoidance
        control.cwnd = 100_000
        control.on_fast_retransmit(now=1.0)
        assert control.cwnd == pytest.approx(70_000)

    def test_window_grows_toward_wmax(self):
        control = CubicControl(mss=1000)
        control.ssthresh = 0
        control.cwnd = 50_000
        control._w_max = 100_000
        for step in range(200):
            control.on_ack(1000, ecn_echo=False, now=step * 1e-3, rtt=1e-4)
        assert control.cwnd > 50_000

    def test_ignores_ecn(self):
        control = CubicControl(mss=1000)
        before = control.cwnd
        control.on_ack(1000, ecn_echo=True, now=0.0, rtt=1e-4)
        assert control.cwnd >= before  # no ECN reaction

    def test_timeout_collapses_window(self):
        control = CubicControl(mss=1000)
        control.cwnd = 50_000
        control.on_timeout(now=1.0)
        assert control.cwnd == 1000


class TestSenderMechanics:
    def test_rto_lower_bound(self):
        rack = build_rack(servers=2)
        sender, _ = open_connection(rack.hosts[0], rack.hosts[1], RenoControl(mss=1448))
        assert sender.rto >= TcpSender.MIN_RTO

    def test_rto_exponential_backoff(self):
        rack = build_rack(servers=2)
        sender, _ = open_connection(rack.hosts[0], rack.hosts[1], RenoControl(mss=1448))
        base = sender.rto
        sender._backoff = 3
        assert sender.rto == pytest.approx(base * 8)
        sender._backoff = 100  # capped
        assert sender.rto == pytest.approx(base * 2**TcpSender.MAX_BACKOFF)

    def test_backoff_resets_on_progress(self):
        rack = build_rack(servers=2)
        sender, _ = open_connection(rack.hosts[0], rack.hosts[1], RenoControl(mss=1448))
        sender._backoff = 4
        sender.send(10_000)
        rack.engine.run_until(1.0)
        assert sender.done
        assert sender._backoff == 0

    def test_invalid_send_rejected(self):
        rack = build_rack(servers=2)
        sender, _ = open_connection(rack.hosts[0], rack.hosts[1], RenoControl(mss=1448))
        with pytest.raises(Exception):
            sender.send(0)

    def test_flight_never_negative(self):
        rack = build_rack(servers=2)
        sender, _ = open_connection(rack.hosts[0], rack.hosts[1], DctcpControl(mss=1448))
        sender.send(500_000)
        for _ in range(2000):
            if not rack.engine.step():
                break
            assert sender.flight >= 0

    def test_srtt_estimated(self):
        rack = build_rack(servers=2)
        sender, _ = open_connection(rack.hosts[0], rack.hosts[1], RenoControl(mss=1448))
        sender.send(100_000)
        rack.engine.run_until(1.0)
        assert sender.srtt is not None
        assert 0 < sender.srtt < 0.01


class SegmentLog:
    """Tap recording the (start, end) of every data segment a host sends."""

    def __init__(self):
        self.segments = []

    def on_packet(self, packet, direction, now):
        if direction is Direction.EGRESS and not packet.is_ack:
            self.segments.append((packet.seq, packet.end_seq))


class TestGoBackN:
    def test_ack_past_snd_nxt_after_timeout_resends_nothing_acknowledged(self):
        """After a go-back-N timeout the retransmission fills the
        receiver's hole, so the cumulative ACK jumps past snd_nxt.  The
        sender must resume at snd_una: resending from the old snd_nxt
        sent acknowledged bytes again, beyond its window."""
        engine = Engine()
        host = Host(engine, "tx")
        host.connect(lambda packet: None)  # the uplink swallows every packet
        log = SegmentLog()
        host.taps.attach(log)
        flow = FlowKey("tx", "rx", 40_000, 443)
        sender = TcpSender(
            host, flow, RenoControl(mss=1000, initial_cwnd_segments=4), segment_bytes=1000
        )
        sender.send(20_000)
        assert log.segments == [(0, 1000), (1000, 2000), (2000, 3000), (3000, 4000)]
        engine.run_until(2 * sender.rto)
        assert sender.timeouts == 1
        assert log.segments[-1] == (0, 1000)  # go-back-N resends snd_una
        del log.segments[:]
        host.deliver(
            Packet("rx", "tx", 64, flow.reversed(), is_ack=True, ack=4000, ecn_capable=False)
        )
        assert log.segments == [(seq, seq + 1000) for seq in range(4000, 9000, 1000)]
        assert sender.snd_nxt == 9000
        assert sender.flight == int(sender.control.cwnd) == 5000
