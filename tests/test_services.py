"""Unit tests for NoC services: exclusive monitor and lock manager."""

import pytest

from repro.core.services import (
    EXCL_USER_BIT,
    ExclusiveMonitor,
    ExclusiveResult,
    LockError,
    LockManager,
    NocService,
)


class TestServiceDefinitions:
    def test_exclusive_uses_exactly_one_packet_bit(self):
        """Paper §3: exclusive access costs 'a single user-defined bit'."""
        bits = NocService.EXCLUSIVE_ACCESS.packet_bits
        assert len(bits) == 1
        assert bits[0].width == 1
        assert bits[0] is EXCL_USER_BIT

    def test_lock_uses_no_packet_bits_but_touches_transport(self):
        assert NocService.LEGACY_LOCK.packet_bits == []
        assert NocService.LEGACY_LOCK.touches_transport

    def test_exclusive_does_not_touch_transport(self):
        assert not NocService.EXCLUSIVE_ACCESS.touches_transport


class TestExclusiveMonitor:
    def test_basic_success(self):
        m = ExclusiveMonitor()
        m.exclusive_load(initiator=1, address=0x100, span=4, cycle=0)
        assert m.exclusive_store(1, 0x100, 4) is ExclusiveResult.EXOKAY
        assert m.grants == 1

    def test_store_without_reservation_fails(self):
        m = ExclusiveMonitor()
        assert m.exclusive_store(1, 0x100, 4) is ExclusiveResult.OKAY_FAILED
        assert m.failures == 1

    def test_intervening_store_kills_reservation(self):
        m = ExclusiveMonitor()
        m.exclusive_load(1, 0x100, 4, cycle=0)
        m.observe_store(initiator=2, address=0x100, span=4)
        assert m.exclusive_store(1, 0x100, 4) is ExclusiveResult.OKAY_FAILED

    def test_own_store_does_not_kill_own_reservation(self):
        m = ExclusiveMonitor()
        m.exclusive_load(1, 0x100, 4, cycle=0)
        m.observe_store(initiator=1, address=0x100, span=4)
        assert m.exclusive_store(1, 0x100, 4) is ExclusiveResult.EXOKAY

    def test_non_overlapping_store_leaves_reservation(self):
        m = ExclusiveMonitor()
        m.exclusive_load(1, 0x100, 4, cycle=0)
        m.observe_store(2, 0x200, 4)
        assert m.exclusive_store(1, 0x100, 4) is ExclusiveResult.EXOKAY

    def test_reservation_consumed_either_way(self):
        m = ExclusiveMonitor()
        m.exclusive_load(1, 0x100, 4, cycle=0)
        m.exclusive_store(1, 0x100, 4)
        assert m.exclusive_store(1, 0x100, 4) is ExclusiveResult.OKAY_FAILED

    def test_successful_store_kills_other_reservations(self):
        m = ExclusiveMonitor()
        m.exclusive_load(1, 0x100, 4, cycle=0)
        m.exclusive_load(2, 0x100, 4, cycle=1)
        assert m.exclusive_store(1, 0x100, 4) is ExclusiveResult.EXOKAY
        assert m.exclusive_store(2, 0x100, 4) is ExclusiveResult.OKAY_FAILED

    def test_reload_replaces_reservation(self):
        m = ExclusiveMonitor()
        m.exclusive_load(1, 0x100, 4, cycle=0)
        m.exclusive_load(1, 0x200, 4, cycle=1)
        assert m.exclusive_store(1, 0x100, 4) is ExclusiveResult.OKAY_FAILED

    def test_capacity_eviction(self):
        m = ExclusiveMonitor(max_reservations=2)
        m.exclusive_load(1, 0x100, 4, cycle=0)
        m.exclusive_load(2, 0x200, 4, cycle=1)
        m.exclusive_load(3, 0x300, 4, cycle=2)  # evicts initiator 1
        assert m.evictions == 1
        assert m.exclusive_store(1, 0x100, 4) is ExclusiveResult.OKAY_FAILED
        assert m.exclusive_store(3, 0x300, 4) is ExclusiveResult.EXOKAY

    def test_partial_overlap_counts(self):
        m = ExclusiveMonitor()
        m.exclusive_load(1, 0x100, 8, cycle=0)
        m.observe_store(2, 0x104, 4)  # overlaps tail of the reservation
        assert m.exclusive_store(1, 0x100, 8) is ExclusiveResult.OKAY_FAILED

    def test_bad_span_rejected(self):
        m = ExclusiveMonitor()
        with pytest.raises(ValueError):
            m.exclusive_load(1, 0, 0, cycle=0)


class TestLockManager:
    def test_acquire_release(self):
        lm = LockManager()
        assert lm.acquire(1)
        assert lm.holder == 1
        lm.release(1)
        assert lm.holder is None

    def test_contention(self):
        lm = LockManager()
        lm.acquire(1)
        assert not lm.acquire(2)
        assert lm.holder == 1
        lm.release(1)
        assert lm.acquire(2)
        assert lm.holder == 2

    def test_may_proceed(self):
        lm = LockManager()
        assert lm.may_proceed(1)
        lm.acquire(1)
        assert lm.may_proceed(1)
        assert not lm.may_proceed(2)

    def test_double_lock_rejected(self):
        lm = LockManager()
        lm.acquire(1)
        with pytest.raises(LockError):
            lm.acquire(1)

    def test_foreign_release_rejected(self):
        lm = LockManager()
        lm.acquire(1)
        with pytest.raises(LockError):
            lm.release(2)
