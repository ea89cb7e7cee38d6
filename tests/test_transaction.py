"""Unit + property tests for transaction primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.transaction import (
    BurstType,
    Opcode,
    ResponseStatus,
    Transaction,
    make_read,
)
from repro.ip import TrafficSpec
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.workloads import DmaDescriptor


#: Every opcode's families: (is_write, is_read, expects_response,
#: is_locking).
OPCODE_FAMILIES = {
    Opcode.LOAD: (False, True, True, False),
    Opcode.STORE: (True, False, True, False),
    Opcode.STORE_POSTED: (True, False, False, False),
    Opcode.READEX: (False, True, True, True),
    Opcode.STORE_COND_LOCKED: (True, False, True, True),
}

#: Every response status's ``is_error``.
STATUS_IS_ERROR = {
    ResponseStatus.OKAY: False,
    ResponseStatus.EXOKAY: False,
    ResponseStatus.SLVERR: True,
    ResponseStatus.DECERR: True,
}


class TestOpcode:
    def test_family_table(self):
        """The families are member attributes, fixed when the class is
        created; this pins them for every member of both enums."""
        assert {
            op: (op.is_write, op.is_read, op.expects_response, op.is_locking)
            for op in Opcode
        } == OPCODE_FAMILIES
        assert {s: s.is_error for s in ResponseStatus} == STATUS_IS_ERROR

    def test_classification(self):
        assert Opcode.LOAD.is_read and not Opcode.LOAD.is_write
        assert Opcode.STORE.is_write and not Opcode.STORE.is_read
        assert Opcode.READEX.is_read
        assert Opcode.STORE_COND_LOCKED.is_write

    def test_posted_store_has_no_response(self):
        assert not Opcode.STORE_POSTED.expects_response
        for opcode in Opcode:
            if opcode is not Opcode.STORE_POSTED:
                assert opcode.expects_response

    def test_locking_family(self):
        locking = {o for o in Opcode if o.is_locking}
        assert locking == {Opcode.READEX, Opcode.STORE_COND_LOCKED}


class TestBurst:
    def test_incr_addresses(self):
        assert BurstType.INCR.addresses(0x100, 4, 4) == [
            0x100,
            0x104,
            0x108,
            0x10C,
        ]

    def test_wrap_addresses_wrap_at_boundary(self):
        # 4-beat x 4-byte WRAP starting mid-block wraps to block start.
        assert BurstType.WRAP.addresses(0x108, 4, 4) == [
            0x108,
            0x10C,
            0x100,
            0x104,
        ]

    def test_fixed_addresses_repeat(self):
        assert BurstType.FIXED.addresses(0x20, 3, 4) == [0x20, 0x20, 0x20]

    def test_single_requires_one_beat(self):
        with pytest.raises(ValueError):
            BurstType.SINGLE.addresses(0, 2, 4)

    def test_wrap_requires_power_of_two(self):
        with pytest.raises(ValueError):
            BurstType.WRAP.addresses(0, 3, 4)

    @given(
        start=st.integers(min_value=0, max_value=1 << 20),
        log_beats=st.integers(min_value=0, max_value=4),
        beat_bytes=st.sampled_from([1, 2, 4, 8]),
    )
    def test_wrap_addresses_stay_in_block(self, start, log_beats, beat_bytes):
        beats = 1 << log_beats
        start = (start // beat_bytes) * beat_bytes
        total = beats * beat_bytes
        addresses = BurstType.WRAP.addresses(start, beats, beat_bytes)
        block = (start // total) * total
        assert len(addresses) == beats
        assert len(set(addresses)) == beats  # all distinct
        assert all(block <= a < block + total for a in addresses)

    @given(
        start=st.integers(min_value=0, max_value=1 << 20),
        beats=st.integers(min_value=1, max_value=64),
        beat_bytes=st.sampled_from([1, 2, 4, 8]),
    )
    def test_incr_addresses_contiguous(self, start, beats, beat_bytes):
        addresses = BurstType.INCR.addresses(start, beats, beat_bytes)
        assert addresses[0] == start
        assert all(
            b - a == beat_bytes for a, b in zip(addresses, addresses[1:])
        )


class TestTransaction:
    def test_write_requires_data(self):
        with pytest.raises(ValueError):
            Transaction(opcode=Opcode.STORE, address=0, beats=2)

    def test_write_data_length_must_match(self):
        with pytest.raises(ValueError):
            Transaction(opcode=Opcode.STORE, address=0, beats=2, data=[1])

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            Transaction(opcode=Opcode.LOAD, address=-4)

    def test_bad_beat_width_rejected(self):
        with pytest.raises(ValueError):
            Transaction(opcode=Opcode.LOAD, address=0, beat_bytes=3)

    def test_excl_incompatible_with_locking(self):
        with pytest.raises(ValueError):
            Transaction(opcode=Opcode.READEX, address=0, excl=True)

    def test_single_beat_normalizes_burst(self):
        txn = Transaction(
            opcode=Opcode.LOAD, address=0, beats=1, burst=BurstType.INCR
        )
        assert txn.burst is BurstType.SINGLE

    def test_txn_ids_unique(self):
        """Ids are unique within a SoC: every source, of every kind, draws
        from its simulator's one stream (scripted intents are stamped at
        build), so the ids a run issues are exactly 0..n-1."""
        sources = {
            "scripted": ("AHB", TrafficSpec(kind="scripted", intents=[
                make_read(0x10), make_read(0x20, beats=4)])),
            "poisson": ("AXI", TrafficSpec(kind="poisson", seed=1, count=30,
                                           pairs=[(0, 0x800)], rate=0.5)),
            "dependent": ("OCP", TrafficSpec(kind="dependent", seed=2, count=10,
                                             pairs=[(0x800, 0x800)])),
            "stream": ("BVCI", TrafficSpec(kind="stream", base=0x400,
                                           bytes_total=256)),
            "sync": ("AXI", TrafficSpec(kind="sync", style="excl",
                                        sema_addr=0xF00, work_addr=0x900)),
            "dma": ("AXI", TrafficSpec(kind="dma", program=[
                DmaDescriptor("read", address=0x200, bursts=3),
                DmaDescriptor("write", address=0x600, after=(0,))])),
        }
        builder = SocBuilder()
        for name, (protocol, traffic) in sources.items():
            builder.add_initiator(InitiatorSpec(name, protocol, traffic))
        builder.add_target(TargetSpec("mem", size=0x1000))
        soc = builder.build()
        issued = []
        for master in soc.masters.values():
            def poll(cycle, _poll=master.traffic.poll):
                txn = _poll(cycle)
                if txn is not None:
                    issued.append(txn.txn_id)
                return txn

            master.traffic.poll = poll
        soc.run_to_completion()
        assert soc.total_completed() == len(issued) > 50
        assert sorted(issued) == list(range(len(issued)))

    def test_total_bytes(self):
        txn = make_read(0, beats=4, beat_bytes=8)
        assert txn.total_bytes == 32

    def test_describe_mentions_opcode_and_address(self):
        text = make_read(0x1000, master="cpu").describe()
        assert "LOAD" in text and "0x00001000" in text and "cpu" in text
