"""Unit + property tests for the three ordering models and the checker."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from differential import build
from repro.core.ordering import (
    OrderingChecker,
    OrderingModel,
    OrderingViolation,
)
from repro.core.protocols import family
from repro.sweep import Checkpoint


class TestStreamKeys:
    def test_fully_ordered_single_stream(self):
        m = OrderingModel.FULLY_ORDERED
        assert m.stream_key(0, 0) == m.stream_key(3, 7) == ()

    def test_threaded_streams_by_thread(self):
        m = OrderingModel.THREADED
        assert m.stream_key(1, 5) == m.stream_key(1, 9)
        assert m.stream_key(1, 5) != m.stream_key(2, 5)

    def test_id_based_streams_by_channel_and_id(self):
        m = OrderingModel.ID_BASED
        assert m.stream_key(0, 5) == m.stream_key(0, 5)
        assert m.stream_key(0, 5) != m.stream_key(1, 5)  # read vs write
        assert m.stream_key(0, 5) != m.stream_key(0, 6)


class TestProtocolMap:
    def test_known_protocols(self):
        assert family("AHB").ordering is OrderingModel.FULLY_ORDERED
        assert family("ocp").ordering is OrderingModel.THREADED
        assert family("AXI").ordering is OrderingModel.ID_BASED
        assert family("AVCI").ordering is OrderingModel.ID_BASED

    def test_unknown_protocol(self):
        with pytest.raises(KeyError, match="unknown socket family 'PCIe'"):
            family("PCIe")


class TestChecker:
    def test_in_order_completion_passes(self):
        checker = OrderingChecker(model=OrderingModel.FULLY_ORDERED)
        for i in range(5):
            checker.issue(i)
        for i in range(5):
            checker.complete(i)
        assert checker.outstanding == 0

    def test_out_of_order_same_stream_violates(self):
        checker = OrderingChecker(model=OrderingModel.FULLY_ORDERED)
        checker.issue(1)
        checker.issue(2)
        with pytest.raises(OrderingViolation):
            checker.complete(2)

    def test_out_of_order_across_threads_allowed(self):
        checker = OrderingChecker(model=OrderingModel.THREADED)
        checker.issue(1, thread=0)
        checker.issue(2, thread=1)
        checker.complete(2)
        checker.complete(1)
        assert checker.outstanding == 0

    def test_out_of_order_across_ids_allowed(self):
        checker = OrderingChecker(model=OrderingModel.ID_BASED)
        checker.issue(1, txn_tag=0)
        checker.issue(2, txn_tag=1)
        checker.complete(2)
        checker.complete(1)

    def test_non_strict_collects(self):
        checker = OrderingChecker(
            model=OrderingModel.FULLY_ORDERED, strict=False
        )
        checker.issue(1)
        checker.issue(2)
        checker.complete(2)
        assert len(checker.violations) == 1

    def test_double_issue_rejected(self):
        checker = OrderingChecker(model=OrderingModel.FULLY_ORDERED)
        checker.issue(1)
        with pytest.raises(KeyError):
            checker.issue(1)

    def test_unknown_completion_rejected(self):
        checker = OrderingChecker(model=OrderingModel.FULLY_ORDERED)
        with pytest.raises(KeyError):
            checker.complete(9)

    def test_double_completion_rejected(self):
        checker = OrderingChecker(model=OrderingModel.FULLY_ORDERED)
        checker.issue(1)
        checker.complete(1)
        with pytest.raises(KeyError):
            checker.complete(1)

    def test_counters(self):
        checker = OrderingChecker(model=OrderingModel.THREADED)
        checker.issue(1, thread=0)
        checker.issue(2, thread=1)
        checker.complete(1)
        assert checker.issued == 2
        assert checker.outstanding == 1

    def test_holds_only_open_records(self):
        checker = OrderingChecker(model=OrderingModel.THREADED)
        for i in range(6):
            checker.issue(i, thread=i % 2)
        for i in (0, 1, 3):
            checker.complete(i)
        assert sorted(checker._records) == [2, 4, 5]
        assert sum(map(len, checker._open_by_stream.values())) == 3
        for i in (2, 4, 5):
            checker.complete(i)
        assert checker._records == {} and checker._open_by_stream == {}
        assert checker.issued == 6 and checker.outstanding == 0

    def test_reissuing_an_open_id_rejected(self):
        checker = OrderingChecker(model=OrderingModel.THREADED)
        checker.issue(1, thread=0)
        checker.issue(2, thread=1)
        checker.complete(2)
        with pytest.raises(KeyError, match="txn 1 already open"):
            checker.issue(1, thread=1)

    def test_counters_survive_snapshot_restore(self):
        donor = build("mixed-protocols")
        checker = donor.masters["cpu_ahb"].checker
        assert checker.model is OrderingModel.FULLY_ORDERED
        for i in range(4):
            checker.issue(i)
        checker.complete(0)
        checker.complete(1)
        checkpoint = Checkpoint.capture(donor)
        restored = build("mixed-protocols")
        checkpoint.restore_into(restored)
        fresh = restored.masters["cpu_ahb"].checker
        assert (fresh.issued, fresh.outstanding) == (4, 2)
        # The restored scoreboard still orders what is open.
        with pytest.raises(OrderingViolation):
            fresh.complete(3)
        fresh.complete(2)
        fresh.complete(3)
        assert fresh.outstanding == 0


def test_checkers_hold_only_open_transactions_after_a_window():
    """On a saturated SoC, every master's scoreboard holds exactly its
    open transactions that expect a response, however many completed."""
    soc = build("saturated-mixed")
    soc.run(1500)
    for name, master in soc.masters.items():
        checker = master.checker
        expecting = sum(
            txn.opcode.expects_response for txn in master._inflight.values()
        )
        assert len(checker._records) == checker.outstanding == expecting, name
        assert checker.issued > 11 * checker.outstanding, name
    assert sum(m.checker.outstanding for m in soc.masters.values()) > 0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # thread
            st.integers(min_value=0, max_value=3),  # tag
        ),
        min_size=1,
        max_size=30,
    ),
    st.randoms(use_true_random=False),
)
def test_property_per_stream_order_never_violates(txns, rng):
    """Completing in any order that preserves per-stream issue order is
    accepted by every model."""
    for model in OrderingModel:
        checker = OrderingChecker(model=model)
        for i, (thread, tag) in enumerate(txns):
            checker.issue(i, thread=thread, txn_tag=tag)
        # Build a completion order: shuffle streams against each other but
        # keep each stream internally ordered.
        streams = {}
        for i, (thread, tag) in enumerate(txns):
            streams.setdefault(model.stream_key(thread, tag), []).append(i)
        pending = {k: list(v) for k, v in streams.items()}
        while pending:
            key = rng.choice(sorted(pending))
            checker.complete(pending[key].pop(0))
            if not pending[key]:
                del pending[key]
        assert checker.outstanding == 0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=2,
        max_size=20,
    )
)
def test_property_reversed_completion_flags_every_stream_inversion(txns):
    """Completing in exact reverse order must violate once per stream
    that holds more than one transaction."""
    model = OrderingModel.THREADED
    checker = OrderingChecker(model=model, strict=False)
    for i, (thread, tag) in enumerate(txns):
        checker.issue(i, thread=thread, txn_tag=tag)
    for i in reversed(range(len(txns))):
        checker.complete(i)
    streams = {}
    for thread, tag in txns:
        key = model.stream_key(thread, tag)
        streams[key] = streams.get(key, 0) + 1
    expected_bad_streams = sum(1 for n in streams.values() if n > 1)
    if expected_bad_streams:
        assert checker.violations
    else:
        assert not checker.violations
