"""Property suite: the TCP endpoints' fast paths against their oracles.

* A receiver fed any order of segments, with duplicates, overlaps and
  empty segments, moves ``rcv_nxt``, counts payload and duplicates,
  reports data and ACKs exactly as the receiver that runs every segment
  through the reassembly map (``tests/simnet/tcp_reference.py``).
* A sender driven by any sequence of ACKs (cumulative, duplicate, stale
  or past a go-back-N restart), app writes and waits long enough for
  its RTO to fire keeps its send-time keys strictly increasing, so the
  RTT scan may stop at the first key that has not expired; its ``srtt``
  and every segment it sends equal the sender that scans every key.
"""

from hypothesis import given, settings, strategies as st

from repro.simnet.engine import Engine
from repro.simnet.host import Host
from repro.simnet.packet import FlowKey, Packet
from repro.simnet.tcp import DctcpControl, RenoControl
from repro.simnet.tcp.base import TcpReceiver, TcpSender
from tests.simnet.tcp_reference import ReferenceReceiver, ReferenceSender

FLOW = FlowKey("tx", "rx", 40_000, 443)
MSS = 1000


def endpoint_host(name: str) -> tuple[Host, list[Packet]]:
    """A host whose uplink hands every sent packet to a list."""
    host = Host(Engine(), name)
    sent: list[Packet] = []
    host.connect(sent.append)
    return host, sent


# -- receiver ----------------------------------------------------------------

#: (seq, length, CE mark) for each arriving segment, in arrival order.
SEGMENTS = st.lists(
    st.tuples(st.integers(0, 12_000), st.integers(0, 4_000), st.booleans()),
    max_size=60,
)


def feed(receiver_class, segments):
    host, acks = endpoint_host("rx")
    data: list[int] = []
    receiver = receiver_class(host, FLOW, on_data=data.append)
    trail = []
    for seq, length, ce in segments:
        host.deliver(Packet("tx", "rx", length + 40, FLOW, seq, length, ecn_ce=ce))
        trail.append((receiver.rcv_nxt, receiver.received_payload, receiver.duplicate_segments))
    ack_fields = [(a.ack, a.ecn_echo, a.size, a.flow, a.dst) for a in acks]
    return trail, data, ack_fields, receiver


@given(segments=SEGMENTS, in_order_prefix=st.integers(0, 8))
@settings(max_examples=150)
def test_receiver_matches_reassembly_oracle(segments, in_order_prefix):
    # Lead with a few back-to-back segments, as a transfer does, so the
    # in-order path runs before the random arrivals.
    lead = [(index * MSS, MSS, False) for index in range(in_order_prefix)]
    got = feed(TcpReceiver, lead + segments)
    want = feed(ReferenceReceiver, lead + segments)
    assert got[:3] == want[:3]
    assert got[3]._out_of_order == want[3]._out_of_order


# -- sender ------------------------------------------------------------------

ACTIONS = st.lists(
    st.one_of(
        # ACK the boundary picked by the index among those sent so far,
        # after a short delay, with or without an ECN echo.
        st.tuples(
            st.just("ack"),
            st.integers(0, 1_000),
            st.booleans(),
            st.floats(1e-6, 2e-3, allow_nan=False),
        ),
        # Let simulated time pass: long waits fire the RTO.
        st.tuples(st.just("wait"), st.floats(1e-4, 0.1, allow_nan=False)),
        st.tuples(st.just("send"), st.integers(1, 8_000)),
    ),
    max_size=50,
)


class Lockstep:
    """One sender on its own engine, host and capturing uplink."""

    def __init__(self, sender_class, control_class, initial_bytes):
        self.host, self.sent = endpoint_host("tx")
        self.engine = self.host.engine
        self.sender = sender_class(
            self.host, FLOW, control_class(MSS, initial_cwnd_segments=4), segment_bytes=MSS
        )
        self.sender.send(initial_bytes)

    def boundaries(self) -> list[int]:
        return sorted({0, *(p.seq for p in self.sent), *(p.end_seq for p in self.sent)})

    def apply(self, action, ack_value=None):
        kind = action[0]
        if kind == "ack":
            _, _, echo, delay = action
            self.engine.run_until(self.engine.now + delay)
            self.host.deliver(
                Packet("rx", "tx", 64, FLOW.reversed(), is_ack=True, ack=ack_value,
                       ecn_capable=False, ecn_echo=echo)
            )
        elif kind == "wait":
            self.engine.run_until(self.engine.now + action[1])
        else:
            self.sender.send(action[1])

    def state(self):
        s = self.sender
        segments = [(p.seq, p.payload, p.retransmit) for p in self.sent]
        return (s.snd_una, s.snd_nxt, s.srtt, list(s._send_times.items()), s.timeouts,
                s.retransmissions, segments)


@given(
    actions=ACTIONS,
    control_class=st.sampled_from([RenoControl, DctcpControl]),
    initial_bytes=st.integers(1, 20_000),
)
@settings(max_examples=150)
def test_sender_send_times_increase_and_srtt_matches_full_scan(
    actions, control_class, initial_bytes
):
    fast = Lockstep(TcpSender, control_class, initial_bytes)
    full = Lockstep(ReferenceSender, control_class, initial_bytes)
    for action in actions:
        ack_value = None
        if action[0] == "ack":
            boundaries = fast.boundaries()
            ack_value = boundaries[action[1] % len(boundaries)]
        fast.apply(action, ack_value)
        full.apply(action, ack_value)
        keys = list(fast.sender._send_times)
        assert all(a < b for a, b in zip(keys, keys[1:])), keys
        assert fast.state() == full.state()
