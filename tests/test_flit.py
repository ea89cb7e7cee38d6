"""Unit tests for flit segmentation and reassembly."""

import itertools

import pytest

from repro.core.packet import NocPacket, PacketFormat, PacketKind, UserBit
from repro.core.transaction import BEAT_WIDTHS, Opcode
from repro.transport.flit import (
    Flit,
    Packetizer,
    Reassembler,
    ReassemblyError,
    flit_count,
)

#: Packet ids for the packets these tests segment (an injection port
#: draws them from its SoC's stream).
PACKET_IDS = itertools.count()


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


def flits(packet, flit_payload_bits, packet_format=None):
    packetizer = Packetizer(flit_payload_bits, packet_format)
    return len(packetizer.segment(packet, next(PACKET_IDS)))


class TestFlitCount:
    def test_read_request_is_single_flit(self):
        assert flits(read_request(beats=16), 128) == 1

    def test_write_payload_adds_flits(self):
        # 4 beats x 32 bits = 128 bits = 1 body flit
        assert flits(write_request(beats=4), 128) == 2
        # 8 beats x 32 bits = 256 bits = 2 body flits
        assert flits(write_request(beats=8), 128) == 3

    def test_narrow_flits_cost_more(self):
        # both under the default 64-bit header
        assert flits(write_request(beats=8), 64) > flits(write_request(beats=8), 256)

    def test_header_must_fit_flit(self):
        wide = PacketFormat(user_bits=[UserBit("u", 33)])  # 100-bit header
        assert wide.header_bits() == 100
        with pytest.raises(ValueError):
            Packetizer(64, wide)

    def test_tiny_flit_rejected(self):
        with pytest.raises(ValueError):
            Packetizer(4)

    @pytest.mark.parametrize("flit_payload_bits", [64, 72, 128, 256])
    def test_packetizer_count_is_flits_for_packet(self, flit_payload_bits):
        """The packetizer segments with the widths its constructor
        checked, into ``flit_count`` flits — the one formula
        ``Network.inject`` sizes SAF/VCT packets with — for every kind,
        opcode, beat count and beat width."""
        packetizer = Packetizer(flit_payload_bits)
        for kind in PacketKind:
            for opcode in Opcode:
                for beats in (1, 2, 3, 4, 7, 8, 16):
                    for beat_bytes in BEAT_WIDTHS:
                        packet = NocPacket(
                            kind=kind, opcode=opcode, slv_addr=1, mst_addr=0,
                            tag=0, beats=beats, beat_bytes=beat_bytes,
                        )
                        count = len(packetizer.segment(packet, next(PACKET_IDS)))
                        assert flit_count(packet, flit_payload_bits) == count
                        assert len(packetizer.segment(packet, next(PACKET_IDS))) == count


class TestPacketizer:
    def test_head_and_tail_flags(self):
        flits = Packetizer(128).segment(write_request(beats=8), next(PACKET_IDS))
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail and not flits[-1].is_head
        assert all(not f.is_head and not f.is_tail for f in flits[1:-1])

    def test_single_flit_is_both(self):
        flits = Packetizer(128).segment(read_request(), next(PACKET_IDS))
        assert len(flits) == 1
        assert flits[0].is_head and flits[0].is_tail

    def test_only_head_carries_packet(self):
        flits = Packetizer(128).segment(write_request(beats=8), next(PACKET_IDS))
        assert flits[0].packet is not None
        assert all(f.packet is None for f in flits[1:])

    def test_routing_fields_replicated(self):
        flits = Packetizer(128).segment(write_request(beats=8), next(PACKET_IDS))
        assert all(f.dest == 1 and f.src == 0 for f in flits)

    def test_distinct_packet_ids(self):
        """Every flit carries the id its packet was segmented with."""
        p = Packetizer(128)
        a = p.segment(write_request(beats=8), 7)
        b = p.segment(read_request(), 8)
        assert [f.packet_id for f in a] == [7, 7, 7]
        assert [f.packet_id for f in b] == [8]

    @pytest.mark.parametrize(
        "packet",
        [
            write_request(beats=8),
            read_request(beats=8).make_response(payload=[0] * 8),
            NocPacket(kind=PacketKind.REQUEST, opcode=Opcode.READEX, slv_addr=2,
                      mst_addr=3, tag=1, priority=2),
            read_request(beats=1),  # no payload: head and tail at once
        ],
        ids=["request", "response", "lock", "zero-payload"],
    )
    def test_header_fields_hoisted_not_changed(self, packet):
        """``segment`` reads the routing header once per packet; every
        flit must still equal, field for field, one built by reading the
        packet's properties per flit (the pre-hoist construction)."""
        flits = Packetizer(128).segment(packet, next(PACKET_IDS), vc=1)
        count = flit_count(packet, 128)
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
            packetizer.segment(bad, next(PACKET_IDS))

    def test_format_header_must_fit(self):
        fmt = PacketFormat()  # 67-bit header
        with pytest.raises(ValueError):
            Packetizer(64, fmt)


class TestReassembler:
    def test_roundtrip(self):
        packet = write_request(beats=8)
        flits = Packetizer(128).segment(packet, next(PACKET_IDS))
        r = Reassembler()
        results = [r.accept(f) for f in flits]
        assert results[:-1] == [None] * (len(flits) - 1)
        assert results[-1] is packet

    def test_body_without_head_rejected(self):
        flits = Packetizer(128).segment(write_request(beats=8), next(PACKET_IDS))
        with pytest.raises(ReassemblyError):
            Reassembler().accept(flits[1])

    def test_head_mid_packet_rejected(self):
        p = Packetizer(128)
        a = p.segment(write_request(beats=8), next(PACKET_IDS))
        b = p.segment(write_request(beats=8), next(PACKET_IDS))
        r = Reassembler()
        r.accept(a[0])
        with pytest.raises(ReassemblyError):
            r.accept(b[0])

    def test_interleaved_body_rejected(self):
        p = Packetizer(128)
        a = p.segment(write_request(beats=8), next(PACKET_IDS))
        b = p.segment(write_request(beats=8), next(PACKET_IDS))
        r = Reassembler()
        r.accept(a[0])
        with pytest.raises(ReassemblyError):
            r.accept(b[1])
