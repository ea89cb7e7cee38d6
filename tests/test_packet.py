"""Unit tests for the NoC packet format."""

import pytest

from repro.core.packet import NocPacket, PacketFormat, PacketKind, UserBit
from repro.core.transaction import Opcode, ResponseStatus


def make_request(**kwargs):
    defaults = dict(
        kind=PacketKind.REQUEST,
        opcode=Opcode.LOAD,
        slv_addr=3,
        mst_addr=1,
        tag=2,
        beats=4,
    )
    defaults.update(kwargs)
    return NocPacket(**defaults)


class TestPacketFormat:
    def test_base_header_bits(self):
        fmt = PacketFormat()
        assert fmt.header_bits() == 67  # documented base width

    def test_user_bits_extend_header(self):
        fmt = PacketFormat().with_user_bit(UserBit("excl", 1))
        assert fmt.header_bits() == 68

    def test_with_user_bit_idempotent(self):
        fmt = PacketFormat().with_user_bit(UserBit("excl"))
        fmt2 = fmt.with_user_bit(UserBit("excl"))
        assert fmt2 is fmt

    def test_duplicate_user_bits_rejected(self):
        with pytest.raises(ValueError):
            PacketFormat(user_bits=[UserBit("a"), UserBit("a")])

    def test_field_capacity(self):
        fmt = PacketFormat(slv_addr_bits=3, mst_addr_bits=2, tag_bits=4)
        assert fmt.max_targets() == 8
        assert fmt.max_initiators() == 4
        assert fmt.max_tags() == 16

    def test_user_bit_lookup(self):
        fmt = PacketFormat(user_bits=[UserBit("excl")])
        assert fmt.has_user_bit("excl")
        assert fmt.user_bit("excl").width == 1
        with pytest.raises(KeyError):
            fmt.user_bit("nope")

    def test_bad_user_bit_width(self):
        with pytest.raises(ValueError):
            UserBit("x", width=0)


class TestRoutingView:
    def test_request_routes_to_slave(self):
        p = make_request()
        assert p.route_destination == 3
        assert p.route_source == 1

    def test_response_routes_to_master(self):
        p = make_request().make_response(payload=[0] * 4)
        assert p.route_destination == 1
        assert p.route_source == 3

    def test_lock_marker_visible_to_transport(self):
        assert make_request(opcode=Opcode.READEX).is_lock_related
        assert make_request(opcode=Opcode.STORE_COND_LOCKED).is_lock_related
        assert not make_request(opcode=Opcode.LOAD).is_lock_related


class TestPayloadSizing:
    def test_read_request_carries_no_payload(self):
        assert make_request(opcode=Opcode.LOAD, beats=8).payload_beats == 0

    def test_write_request_carries_payload(self):
        p = make_request(opcode=Opcode.STORE, beats=8, payload=[0] * 8)
        assert p.payload_beats == 8
        assert p.payload_bits() == 8 * 4 * 8

    def test_read_response_carries_payload(self):
        p = make_request(beats=4).make_response(payload=[0] * 4)
        assert p.payload_beats == 4

    def test_write_response_carries_none(self):
        req = make_request(opcode=Opcode.STORE, beats=4, payload=[0] * 4)
        assert req.make_response().payload_beats == 0


class TestValidation:
    def test_fields_must_fit_format(self):
        fmt = PacketFormat(slv_addr_bits=2, mst_addr_bits=2, tag_bits=2)
        make_request(slv_addr=3, mst_addr=3, tag=3).validate_against(fmt)
        with pytest.raises(ValueError):
            make_request(slv_addr=4).validate_against(fmt)
        with pytest.raises(ValueError):
            make_request(tag=4).validate_against(fmt)

    def test_unknown_user_field_rejected(self):
        fmt = PacketFormat()
        with pytest.raises(KeyError):
            make_request(user={"excl": 1}).validate_against(fmt)

    def test_user_field_width_enforced(self):
        fmt = PacketFormat(user_bits=[UserBit("excl", 1)])
        make_request(user={"excl": 1}).validate_against(fmt)
        with pytest.raises(ValueError):
            make_request(user={"excl": 2}).validate_against(fmt)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            make_request(slv_addr=-1)
        with pytest.raises(ValueError):
            make_request(tag=-1)


class TestMakeResponse:
    def test_response_echoes_identity(self):
        req = make_request(tag=5, txn_id=42)
        rsp = req.make_response(payload=[1, 2, 3, 4])
        assert rsp.kind is PacketKind.RESPONSE
        assert (rsp.slv_addr, rsp.mst_addr, rsp.tag) == (3, 1, 5)
        assert rsp.txn_id == 42

    def test_cannot_respond_to_response(self):
        rsp = make_request().make_response(payload=[0] * 4)
        with pytest.raises(ValueError):
            rsp.make_response()

    def test_status_carried(self):
        rsp = make_request().make_response(status=ResponseStatus.DECERR)
        assert rsp.status is ResponseStatus.DECERR
