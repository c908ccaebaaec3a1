"""Tests for packets, links, and NIC segmentation offload."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simnet.engine import Engine
from repro.simnet.link import Link
from repro.simnet.nic import HEADER_BYTES, Nic
from repro.simnet.packet import FlowKey, Packet


def make_packet(size=1500, payload=None, **kwargs) -> Packet:
    flow = kwargs.pop("flow", FlowKey("a", "b", 1, 2))
    payload = size - HEADER_BYTES if payload is None else payload
    return Packet(src="a", dst="b", size=size, payload=payload, flow=flow, **kwargs)


class TestPacket:
    def test_invalid_sizes_rejected(self):
        with pytest.raises(SimulationError):
            Packet(src="a", dst="b", size=0, flow=FlowKey("a", "b"))
        with pytest.raises(SimulationError):
            Packet(src="a", dst="b", size=10, payload=20, flow=FlowKey("a", "b"))

    def test_marked_copy_sets_ce(self):
        packet = make_packet(
            seq=7,
            is_ack=True,
            ack=9,
            ecn_capable=False,
            ecn_echo=True,
            retransmit=True,
            multicast_group="g",
            enqueued_at=1.5,
        )
        marked = packet.marked()
        assert marked.ecn_ce and not packet.ecn_ce
        assert marked.packet_id == packet.packet_id
        # Built field by field: every other field is copied, and the
        # copy is validated like any packet.
        assert marked == dataclasses.replace(packet, ecn_ce=True)
        packet.payload = packet.size + 1
        with pytest.raises(SimulationError):
            packet.marked()

    def test_multicast_copy_gets_new_id(self):
        packet = make_packet(multicast_group="g")
        replica = packet.copy_for("c")
        assert replica.dst == "c"
        assert replica.packet_id != packet.packet_id

    def test_flow_key_reverse(self):
        flow = FlowKey("a", "b", 10, 20)
        assert flow.reversed() == FlowKey("b", "a", 20, 10)
        assert flow.reversed().reversed() == flow

    def test_end_seq(self):
        packet = make_packet(size=140, payload=100)
        assert packet.end_seq == packet.seq + 100


class TestLink:
    def test_serialization_plus_propagation(self):
        engine = Engine()
        link = Link(engine, rate=1000.0, propagation_delay=0.5)
        arrivals = []
        link.transmit(make_packet(size=100), lambda p: arrivals.append(engine.now))
        engine.run()
        assert arrivals == [pytest.approx(0.1 + 0.5)]

    def test_fifo_queueing(self):
        engine = Engine()
        link = Link(engine, rate=1000.0, propagation_delay=0.0)
        arrivals = []
        link.transmit(make_packet(size=100), lambda p: arrivals.append(engine.now))
        link.transmit(make_packet(size=100), lambda p: arrivals.append(engine.now))
        engine.run()
        assert arrivals == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_queueing_delay_reported(self):
        engine = Engine()
        link = Link(engine, rate=1000.0)
        link.transmit(make_packet(size=500), lambda p: None)
        assert link.queueing_delay() == pytest.approx(0.5)

    def test_counters(self):
        engine = Engine()
        link = Link(engine, rate=1e6)
        link.transmit(make_packet(size=100), lambda p: None)
        link.transmit(make_packet(size=200), lambda p: None)
        assert link.transmitted_packets == 2
        assert link.transmitted_bytes == 300

    def test_invalid_rate_rejected(self):
        with pytest.raises(SimulationError):
            Link(Engine(), rate=0)


class TestNic:
    def test_small_packet_untouched(self):
        nic = Nic()
        packet = make_packet(size=1000)
        assert nic.segment(packet) == [packet]

    def test_segmentation_splits_payload(self):
        nic = Nic(mtu=1500)
        packet = make_packet(size=16 * 1024, payload=16 * 1024 - HEADER_BYTES)
        pieces = nic.segment(packet)
        assert len(pieces) > 1
        assert all(piece.size <= 1500 for piece in pieces)
        assert sum(piece.payload for piece in pieces) == packet.payload

    def test_segmentation_preserves_sequence_space(self):
        nic = Nic()
        packet = make_packet(size=8000, payload=8000 - HEADER_BYTES)
        pieces = nic.segment(packet)
        seq = packet.seq
        for piece in pieces:
            assert piece.seq == seq
            seq = piece.end_seq
        assert seq == packet.end_seq

    def test_segmentation_copies_flags(self):
        nic = Nic()
        packet = make_packet(size=8000, payload=7960, ecn_ce=True, retransmit=True)
        for piece in nic.segment(packet):
            assert piece.ecn_ce and piece.retransmit

    def test_oversized_segment_rejected(self):
        nic = Nic()
        with pytest.raises(SimulationError):
            nic.segment(make_packet(size=100 * 1024, payload=100 * 1024 - 40))

    def test_coalesce_merges_contiguous(self):
        nic = Nic()
        flow = FlowKey("a", "b", 1, 2)
        first = Packet("a", "b", size=1040, payload=1000, seq=0, flow=flow)
        second = Packet("a", "b", size=1040, payload=1000, seq=1000, flow=flow)
        merged = nic.coalesce([first, second])
        assert len(merged) == 1
        assert merged[0].payload == 2000

    def test_coalesce_respects_ce_boundary(self):
        """CE-marked packets never merge with unmarked ones — the mark
        must survive reassembly (Section 4.6)."""
        nic = Nic()
        flow = FlowKey("a", "b", 1, 2)
        first = Packet("a", "b", size=1040, payload=1000, seq=0, flow=flow)
        second = Packet(
            "a", "b", size=1040, payload=1000, seq=1000, flow=flow, ecn_ce=True
        )
        assert len(nic.coalesce([first, second])) == 2

    def test_coalesce_does_not_merge_gaps(self):
        nic = Nic()
        flow = FlowKey("a", "b", 1, 2)
        first = Packet("a", "b", size=1040, payload=1000, seq=0, flow=flow)
        third = Packet("a", "b", size=1040, payload=1000, seq=2000, flow=flow)
        assert len(nic.coalesce([first, third])) == 2

    def test_coalesce_caps_at_gso_max(self):
        nic = Nic(gso_max=3000)
        flow = FlowKey("a", "b", 1, 2)
        packets = [
            Packet("a", "b", size=1040, payload=1000, seq=i * 1000, flow=flow)
            for i in range(5)
        ]
        merged = nic.coalesce(packets)
        assert all(packet.size <= 3000 for packet in merged)
        assert sum(packet.payload for packet in merged) == 5000

    @given(payload=st.integers(1, 64 * 1024 - HEADER_BYTES))
    @settings(max_examples=50)
    def test_segment_coalesce_roundtrip_preserves_payload(self, payload):
        nic = Nic()
        packet = make_packet(size=payload + HEADER_BYTES, payload=payload)
        pieces = nic.segment(packet)
        merged = nic.coalesce(pieces)
        assert sum(piece.payload for piece in merged) == payload
