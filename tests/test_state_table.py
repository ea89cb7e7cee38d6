"""Unit + property tests for the NIU state lookup table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.transaction import ResponseStatus, make_read
from repro.niu.state_table import StateTable, StateTableFullError


def alloc(table, stream=(), tag=0, slv=1):
    # Ids need only be unique within the table: number its allocations.
    txn = make_read(0x100, txn_id=table.total_allocated)
    return table.allocate(txn, tag=tag, slv_addr=slv, offset=0, stream=stream)


class TestAllocation:
    def test_capacity_enforced(self):
        t = StateTable("t", capacity=2)
        alloc(t)
        alloc(t)
        assert not t.can_allocate()
        with pytest.raises(StateTableFullError):
            alloc(t)

    def test_release_frees_capacity(self):
        t = StateTable("t", capacity=1)
        e = alloc(t)
        t.release(e.txn_id)
        assert t.can_allocate()

    def test_double_track_rejected(self):
        t = StateTable("t", capacity=4)
        txn = make_read(0)
        t.allocate(txn, 0, 1, 0, ())
        with pytest.raises(KeyError):
            t.allocate(txn, 0, 1, 0, ())

    def test_release_unknown_rejected(self):
        with pytest.raises(KeyError):
            StateTable("t", 4).release(99)

    def test_watermark_and_totals(self):
        t = StateTable("t", capacity=4)
        a, b = alloc(t), alloc(t)
        t.release(a.txn_id)
        alloc(t)
        assert t.total_allocated == 3
        assert t.high_watermark == 2

    def test_stream_sequence_numbers(self):
        t = StateTable("t", capacity=8)
        a = alloc(t, stream=(1,))
        b = alloc(t, stream=(2,))
        c = alloc(t, stream=(1,))
        assert (a.stream_seq, b.stream_seq, c.stream_seq) == (0, 0, 1)


def test_version_moves_on_exactly_the_three_writers():
    """``version`` stamps answers derived from the table (the NIU's
    memoised admit refusal): every write must move it, no read may."""
    t = StateTable("t", capacity=2)
    assert t.version == 0
    a = alloc(t, stream=(0,), slv=3)
    assert t.version == 1
    t.can_allocate(), len(t), a.txn_id in t, t.entry(a.txn_id), t.entries()
    t.match_response(0, 3), t.deliverable(), t.outstanding_targets((0,))
    t.stream_population((0,))
    assert t.version == 1
    t.mark_responded(a.txn_id, ResponseStatus.OKAY, None)
    assert t.version == 2
    t.deliverable()
    assert t.version == 2
    t.release(a.txn_id)
    assert t.version == 3
    with pytest.raises(KeyError):
        t.release(a.txn_id)  # a refused write is not a write
    assert t.version == 3


class TestResponseMatching:
    def test_matches_oldest_with_tag_and_target(self):
        t = StateTable("t", capacity=4)
        a = alloc(t, tag=1, slv=2)
        b = alloc(t, tag=1, slv=2)
        assert t.match_response(1, 2) is a
        t.mark_responded(a.txn_id, ResponseStatus.OKAY, [0])
        assert t.match_response(1, 2) is b

    def test_no_match_raises(self):
        t = StateTable("t", capacity=4)
        alloc(t, tag=1, slv=2)
        with pytest.raises(KeyError):
            t.match_response(0, 2)

    def test_txn_id_hint_detects_fabric_reorder(self):
        t = StateTable("t", capacity=4)
        alloc(t, tag=1, slv=2)
        b = alloc(t, tag=1, slv=2)
        with pytest.raises(AssertionError):
            t.match_response(1, 2, txn_id_hint=b.txn_id)

    def test_double_response_rejected(self):
        t = StateTable("t", capacity=4)
        a = alloc(t)
        t.mark_responded(a.txn_id, ResponseStatus.OKAY, None)
        with pytest.raises(KeyError):
            t.mark_responded(a.txn_id, ResponseStatus.OKAY, None)


class TestDeliverableOrdering:
    def test_only_oldest_of_stream_deliverable(self):
        t = StateTable("t", capacity=4)
        a = alloc(t, stream=(0,))
        b = alloc(t, stream=(0,))
        t.mark_responded(b.txn_id, ResponseStatus.OKAY, None)
        assert t.deliverable() == []  # b waits for a
        t.mark_responded(a.txn_id, ResponseStatus.OKAY, None)
        assert [e.txn_id for e in t.deliverable()] == [a.txn_id]
        t.release(a.txn_id)
        assert [e.txn_id for e in t.deliverable()] == [b.txn_id]

    def test_streams_deliver_independently(self):
        t = StateTable("t", capacity=4)
        alloc(t, stream=(0,))
        b = alloc(t, stream=(1,))
        t.mark_responded(b.txn_id, ResponseStatus.OKAY, None)
        assert [e.txn_id for e in t.deliverable()] == [b.txn_id]

    def test_outstanding_targets(self):
        t = StateTable("t", capacity=4)
        alloc(t, stream=(0,), slv=3)
        alloc(t, stream=(0,), slv=5)
        alloc(t, stream=(1,), slv=7)
        assert t.outstanding_targets((0,)) == [3, 5]
        assert t.stream_population((0,)) == 2


@given(
    streams=st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                     max_size=12),
    order_seed=st.randoms(use_true_random=False),
)
def test_property_delivery_respects_stream_order(streams, order_seed):
    """Whatever order responses arrive in, draining deliverable() always
    yields each stream's entries in issue order — the table *is* the
    reorder buffer."""
    t = StateTable("t", capacity=len(streams))
    entries = [alloc(t, stream=(s,)) for s in streams]
    arrival = list(entries)
    order_seed.shuffle(arrival)
    delivered = []
    for e in arrival:
        t.mark_responded(e.txn_id, ResponseStatus.OKAY, None)
        # Drain until stable: releasing a stream head can unblock the
        # next entry of the same stream (as the NIU engine does).
        while True:
            ready_list = t.deliverable()
            if not ready_list:
                break
            for ready in ready_list:
                delivered.append(ready)
                t.release(ready.txn_id)
    assert len(delivered) == len(entries)
    per_stream = {}
    for e in delivered:
        per_stream.setdefault(e.stream, []).append(e.stream_seq)
    for seqs in per_stream.values():
        assert seqs == sorted(seqs)
