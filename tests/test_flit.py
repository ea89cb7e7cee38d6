"""Unit tests for flit segmentation and reassembly."""

import pytest

from repro.core.packet import NocPacket, PacketFormat, PacketKind
from repro.core.transaction import Opcode
from repro.transport.flit import (
    Flit,
    Packetizer,
    Reassembler,
    ReassemblyError,
    flits_for_packet,
)


def read_request(beats=4):
    return NocPacket(
        kind=PacketKind.REQUEST,
        opcode=Opcode.LOAD,
        slv_addr=1,
        mst_addr=0,
        tag=0,
        beats=beats,
    )


def write_request(beats=4, beat_bytes=4):
    return NocPacket(
        kind=PacketKind.REQUEST,
        opcode=Opcode.STORE,
        slv_addr=1,
        mst_addr=0,
        tag=0,
        beats=beats,
        beat_bytes=beat_bytes,
        payload=[0] * beats,
    )


class TestFlitCount:
    def test_read_request_is_single_flit(self):
        assert flits_for_packet(read_request(beats=16), 128) == 1

    def test_write_payload_adds_flits(self):
        # 4 beats x 32 bits = 128 bits = 1 body flit
        assert flits_for_packet(write_request(beats=4), 128) == 2
        # 8 beats x 32 bits = 256 bits = 2 body flits
        assert flits_for_packet(write_request(beats=8), 128) == 3

    def test_narrow_flits_cost_more(self):
        wide = flits_for_packet(write_request(beats=8), 256, header_bits=64)
        narrow = flits_for_packet(write_request(beats=8), 64, header_bits=64)
        assert narrow > wide

    def test_header_must_fit_flit(self):
        with pytest.raises(ValueError):
            flits_for_packet(read_request(), 64, header_bits=100)

    def test_tiny_flit_rejected(self):
        with pytest.raises(ValueError):
            flits_for_packet(read_request(), 4)


class TestPacketizer:
    def test_head_and_tail_flags(self):
        flits = Packetizer(128).segment(write_request(beats=8))
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail and not flits[-1].is_head
        assert all(not f.is_head and not f.is_tail for f in flits[1:-1])

    def test_single_flit_is_both(self):
        flits = Packetizer(128).segment(read_request())
        assert len(flits) == 1
        assert flits[0].is_head and flits[0].is_tail

    def test_only_head_carries_packet(self):
        flits = Packetizer(128).segment(write_request(beats=8))
        assert flits[0].packet is not None
        assert all(f.packet is None for f in flits[1:])

    def test_routing_fields_replicated(self):
        flits = Packetizer(128).segment(write_request(beats=8))
        assert all(f.dest == 1 and f.src == 0 for f in flits)

    def test_distinct_packet_ids(self):
        p = Packetizer(128)
        a = p.segment(read_request())
        b = p.segment(read_request())
        assert a[0].packet_id != b[0].packet_id

    @pytest.mark.parametrize(
        "packet",
        [
            write_request(beats=8),
            read_request(beats=8).make_response(payload=[0] * 8),
            NocPacket(kind=PacketKind.REQUEST, opcode=Opcode.LOCK, slv_addr=2,
                      mst_addr=3, tag=1, priority=2),
            read_request(beats=1),  # no payload: head and tail at once
        ],
        ids=["request", "response", "lock", "zero-payload"],
    )
    def test_header_fields_hoisted_not_changed(self, packet):
        """``segment`` reads the routing header once per packet; every
        flit must still equal, field for field, one built by reading the
        packet's properties per flit (the pre-hoist construction)."""
        flits = Packetizer(128).segment(packet, vc=1)
        count = flits_for_packet(packet, 128)
        assert flits == [
            Flit(
                packet_id=flits[0].packet_id,
                seq=seq,
                count=count,
                dest=packet.route_destination,
                src=packet.route_source,
                priority=packet.priority,
                lock_related=packet.is_lock_related,
                packet=packet if seq == 0 else None,
                vc=1,
            )
            for seq in range(count)
        ]

    def test_format_validation_applied(self):
        fmt = PacketFormat(slv_addr_bits=1, mst_addr_bits=1, tag_bits=1)
        packetizer = Packetizer(128, fmt)
        bad = NocPacket(
            kind=PacketKind.REQUEST,
            opcode=Opcode.LOAD,
            slv_addr=5,
            mst_addr=0,
            tag=0,
        )
        with pytest.raises(ValueError):
            packetizer.segment(bad)

    def test_format_header_must_fit(self):
        fmt = PacketFormat()  # 67-bit header
        with pytest.raises(ValueError):
            Packetizer(64, fmt)


class TestReassembler:
    def test_roundtrip(self):
        packet = write_request(beats=8)
        flits = Packetizer(128).segment(packet)
        r = Reassembler()
        results = [r.accept(f) for f in flits]
        assert results[:-1] == [None] * (len(flits) - 1)
        assert results[-1] is packet

    def test_body_without_head_rejected(self):
        flits = Packetizer(128).segment(write_request(beats=8))
        with pytest.raises(ReassemblyError):
            Reassembler().accept(flits[1])

    def test_head_mid_packet_rejected(self):
        p = Packetizer(128)
        a = p.segment(write_request(beats=8))
        b = p.segment(write_request(beats=8))
        r = Reassembler()
        r.accept(a[0])
        with pytest.raises(ReassemblyError):
            r.accept(b[0])

    def test_interleaved_body_rejected(self):
        p = Packetizer(128)
        a = p.segment(write_request(beats=8))
        b = p.segment(write_request(beats=8))
        r = Reassembler()
        r.accept(a[0])
        with pytest.raises(ReassemblyError):
            r.accept(b[1])

    def test_mid_packet_flag(self):
        flits = Packetizer(128).segment(write_request(beats=8))
        r = Reassembler()
        assert not r.mid_packet
        r.accept(flits[0])
        assert r.mid_packet
