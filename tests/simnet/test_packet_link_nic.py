"""Tests for packets and links."""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.simnet.engine import Engine
from repro.simnet.link import Link
from repro.simnet.packet import FlowKey, Packet

#: TCP/IP header bytes carried by each packet.
HEADER_BYTES = 40


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
