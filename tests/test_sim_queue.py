"""Unit tests for the staged FIFO primitive."""

import pytest

from repro.sim.queue import SimQueue


def test_push_invisible_until_commit():
    q = SimQueue("q", capacity=4)
    q.push("a")
    assert len(q) == 0
    assert not q
    q.commit()
    assert len(q) == 1
    assert q.peek() == "a"


def test_pop_returns_fifo_order():
    q = SimQueue("q", capacity=8)
    for item in ("a", "b", "c"):
        q.push(item)
    q.commit()
    assert [q.pop(), q.pop(), q.pop()] == ["a", "b", "c"]


def test_capacity_counts_staged_plus_committed():
    q = SimQueue("q", capacity=2)
    q.push(1)
    q.commit()
    q.push(2)
    assert not q.can_push()
    with pytest.raises(OverflowError):
        q.push(3)


def test_pop_frees_capacity_immediately():
    q = SimQueue("q", capacity=1)
    q.push(1)
    q.commit()
    assert not q.can_push()
    q.pop()
    assert q.can_push()


def test_pop_empty_raises():
    q = SimQueue("q")
    with pytest.raises(IndexError):
        q.pop()


def test_peek_out_of_range():
    q = SimQueue("q")
    q.push(1)
    q.commit()
    with pytest.raises(IndexError):
        q.peek(1)


@pytest.mark.parametrize("index", [-1, -2])
def test_peek_negative_index_is_out_of_range(index):
    """Negative indices do not count from the newest item."""
    q = SimQueue("q")
    q.push(1)
    q.commit()
    with pytest.raises(IndexError, match=rf"queue 'q': peek\({index}\)"):
        q.peek(index)


def test_unbounded_queue():
    q = SimQueue("q", capacity=None)
    for i in range(1000):
        q.push(i)
    assert q.can_push(10_000)
    q.commit()
    assert len(q) == 1000


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        SimQueue("q", capacity=0)


def test_iteration_does_not_consume():
    q = SimQueue("q", capacity=4)
    q.push(1)
    q.push(2)
    q.commit()
    assert list(q) == [1, 2]
    assert len(q) == 2


def test_statistics_counters():
    q = SimQueue("q", capacity=4)
    q.push(1)
    q.push(2)
    q.commit()
    q.pop()
    assert q.total_pushed == 2
    assert q.total_popped == 1
    assert q.high_watermark == 2


def test_occupancy_includes_staged():
    q = SimQueue("q", capacity=4)
    q.push(1)
    q.commit()
    q.push(2)
    assert q.occupancy == 2
    assert len(q) == 1


def test_high_watermark_tracks_committed_peak():
    q = SimQueue("q", capacity=8)
    for i in range(3):
        q.push(i)
    q.commit()
    assert q.high_watermark == 3
    while q:
        q.pop()
    q.commit()
    assert q.high_watermark == 3  # watermark is a max, pops keep it


class _WakeRecorder:
    def __init__(self):
        self.wakes = 0

    def wake(self):
        self.wakes += 1


def test_wake_on_push_fires_at_commit_not_push():
    q = SimQueue("q", capacity=4)
    consumer = _WakeRecorder()
    q.wake_on_push(consumer)
    q.push(1)
    assert consumer.wakes == 0  # staged items are not yet visible
    q.commit()
    assert consumer.wakes == 1
    q.commit()  # nothing staged: no spurious wake
    assert consumer.wakes == 1


def test_wake_registration_is_idempotent():
    q = SimQueue("q", capacity=4)
    consumer = _WakeRecorder()
    q.wake_on_push(consumer)
    q.wake_on_push(consumer)
    q.push(1)
    q.commit()
    assert consumer.wakes == 1
