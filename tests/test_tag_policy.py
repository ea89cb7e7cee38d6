"""Unit tests for the SlvAddr/MstAddr/Tag assignment policy."""

import pytest

from repro.core.ordering import OrderingModel
from repro.core.transaction import make_read
from repro.niu.state_table import StateTable
from repro.niu.tag_policy import TagPolicy, default_policy


def txn(thread=0, tag=0):
    t = make_read(0x100)
    t.thread = thread
    t.txn_tag = tag
    return t


class TestTagAssignment:
    def test_fully_ordered_always_tag_zero(self):
        p = TagPolicy(ordering=OrderingModel.FULLY_ORDERED)
        assert p.tag_for(txn(thread=3, tag=7)) == 0

    def test_threaded_uses_thread(self):
        p = TagPolicy(ordering=OrderingModel.THREADED, tag_bits=2)
        assert p.tag_for(txn(thread=1)) == 1
        assert p.tag_for(txn(thread=5)) == 1  # folded mod 4

    def test_id_based_uses_tid(self):
        p = TagPolicy(ordering=OrderingModel.ID_BASED, tag_bits=2)
        assert p.tag_for(txn(tag=3)) == 3
        assert p.tag_for(txn(tag=6)) == 2

    def test_stream_of_follows_model(self):
        p = TagPolicy(ordering=OrderingModel.THREADED)
        assert p.stream_of(txn(thread=2, tag=9)) == (2,)


class TestAdmission:
    def test_table_capacity_gates(self):
        p = TagPolicy(ordering=OrderingModel.FULLY_ORDERED, max_outstanding=1)
        table = StateTable("t", capacity=1)
        t1 = txn()
        assert p.admit(t1, 1, table)
        table.allocate(t1, 0, 1, 0, p.stream_of(t1))
        assert not p.admit(txn(), 1, table)

    def test_per_stream_budget(self):
        p = TagPolicy(
            ordering=OrderingModel.THREADED,
            max_outstanding=8,
            per_stream_outstanding=1,
        )
        table = StateTable("t", capacity=8)
        t1 = txn(thread=0)
        table.allocate(t1, 0, 1, 0, p.stream_of(t1))
        assert not p.admit(txn(thread=0), 1, table)
        assert p.admit(txn(thread=1), 1, table)

    def test_single_target_rule(self):
        p = TagPolicy(
            ordering=OrderingModel.FULLY_ORDERED,
            max_outstanding=8,
            per_stream_outstanding=8,
            multi_target=False,
        )
        table = StateTable("t", capacity=8)
        t1 = txn()
        table.allocate(t1, 0, 3, 0, p.stream_of(t1))
        assert p.admit(txn(), 3, table)  # same target: fine
        assert not p.admit(txn(), 4, table)  # target switch: stall

    def test_multi_target_allows_switch(self):
        p = TagPolicy(
            ordering=OrderingModel.FULLY_ORDERED,
            max_outstanding=8,
            per_stream_outstanding=8,
            multi_target=True,
        )
        table = StateTable("t", capacity=8)
        t1 = txn()
        table.allocate(t1, 0, 3, 0, p.stream_of(t1))
        assert p.admit(txn(), 4, table)


class TestGateModelHooks:
    def test_reorder_entries_follow_multi_target(self):
        assert default_policy("AHB").reorder_entries == 0
        deep = TagPolicy(
            ordering=OrderingModel.ID_BASED,
            max_outstanding=16,
            per_stream_outstanding=16,
        )
        assert deep.reorder_entries == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            TagPolicy(ordering=OrderingModel.ID_BASED, max_outstanding=0)
        with pytest.raises(ValueError):
            TagPolicy(ordering=OrderingModel.ID_BASED, per_stream_outstanding=0)
        with pytest.raises(ValueError):
            TagPolicy(ordering=OrderingModel.ID_BASED, tag_bits=0)

    def test_describe(self):
        text = TagPolicy(ordering=OrderingModel.THREADED, max_outstanding=1).describe()
        assert "THREADED" in text and "outstanding=1" in text
