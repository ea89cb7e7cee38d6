"""Unit + property tests for the credit counter."""

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.transport.flow_control import CreditCounter


class TestBasics:
    def test_initial_credits_equal_capacity(self):
        c = CreditCounter(4)
        assert c._available == 4
        assert c.can_send(4)
        assert not c.can_send(5)

    def test_consume_and_immediate_return(self):
        c = CreditCounter(2, return_latency=0)
        c.consume(2)
        assert c._available == 0
        c.give_back()
        assert c._available == 1

    def test_delayed_return(self):
        c = CreditCounter(2, return_latency=2)
        c.consume(1)
        c.give_back(1)
        assert c._available == 1  # not yet matured
        c.advance()
        assert c._available == 1
        c.advance()
        assert c._available == 2

    def test_underflow_rejected(self):
        c = CreditCounter(1)
        c.consume(1)
        with pytest.raises(RuntimeError):
            c.consume(1)

    def test_overflow_rejected(self):
        c = CreditCounter(1, return_latency=0)
        with pytest.raises(RuntimeError):
            c.give_back(1)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            CreditCounter(0)
        with pytest.raises(ValueError):
            CreditCounter(1, return_latency=-1)
        with pytest.raises(ValueError):
            CreditCounter(1).give_back(0)

    def test_outstanding_accounting(self):
        c = CreditCounter(4, return_latency=3)
        c.consume(3)
        c.give_back(2)
        assert c.outstanding == 3  # 1 held + 2 in the return loop


@given(
    capacity=st.integers(min_value=1, max_value=8),
    latency=st.integers(min_value=0, max_value=4),
    script=st.lists(
        st.sampled_from(["send", "ret", "tick"]), min_size=1, max_size=200
    ),
)
def test_property_credits_conserved(capacity, latency, script):
    """available + outstanding == capacity at every step, and the sender
    can never overrun the receiver buffer."""
    c = CreditCounter(capacity, return_latency=latency)
    receiver_occupancy = 0
    for action in script:
        if action == "send" and c.can_send():
            c.consume()
            receiver_occupancy += 1
        elif action == "ret" and receiver_occupancy > 0:
            receiver_occupancy -= 1
            c.give_back()
        elif action == "tick":
            c.advance()
        assert 0 <= c._available <= capacity
        assert c._available + c.outstanding == capacity
        assert receiver_occupancy <= capacity
        assert c.in_return_loop == sum(count for _, count in c._in_flight)


def scan_credit_step(credit, held):
    """What VcPhysicalLink.tick ran per VC per producer edge before
    CreditCounter.step existed, kept verbatim as the oracle (with the
    old in_return_loop, a sum over the return loop, written out)."""
    credit.advance()
    in_return_loop = sum(count for _due, count in credit._in_flight)
    freed = credit.outstanding - in_return_loop - held
    if freed > 0:
        credit.give_back(freed)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    latency=st.integers(min_value=0, max_value=4),
    script=st.lists(
        st.sampled_from(["send", "drain", "tick", "tick", "restore"]),
        min_size=1, max_size=200,
    ),
)
def test_property_step_matches_the_four_call_sequence(capacity, latency, script):
    """The link-side usage: credits are consumed per flit sent, the
    receiver only drains its buffer, and the sender derives the
    give-back from occupancy once per cycle.  step(held) must leave
    exactly the state the old advance / outstanding / in_return_loop /
    give_back sequence did, through restores too (_returning is derived
    state, rebuilt from the return loop)."""
    oracle = CreditCounter(capacity, return_latency=latency)
    c = CreditCounter(capacity, return_latency=latency)
    held = 0  # flits on the wires or buffered downstream
    for action in script:
        if action == "send" and c.can_send():
            oracle.consume()
            c.consume()
            held += 1
        elif action == "drain" and held > 0:
            held -= 1
        elif action == "tick":
            scan_credit_step(oracle, held)
            c.step(held)
        elif action == "restore":
            envelope = copy.deepcopy(c.snapshot())
            c = CreditCounter(capacity, return_latency=latency)
            c.restore(envelope)
        assert c.snapshot() == oracle.snapshot()
        assert c.in_return_loop == sum(count for _, count in c._in_flight)
        assert c.outstanding >= c.in_return_loop + held
        if c._available == capacity:
            assert c.in_return_loop == 0 and not c._in_flight  # step's early-out
