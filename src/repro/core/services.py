"""NoC services — optional transaction-layer features (paper §3).

The paper contrasts two synchronization families:

- **Legacy blocking**: READEX / STORE_COND_LOCKED.  These *impact the
  transport level*: switches must take specific decisions when they see
  LOCK-related packets (a path through the fabric is held for one
  master).
  :class:`LockManager` models the target-side lock state; the transport
  layer's routers additionally reserve the locked path (see
  :mod:`repro.transport.router`).

- **Non-blocking exclusive**: AXI "exclusive access" and OCP "lazy
  synchronization".  Handling these "only requires adding a single
  user-defined bit in the packets, and state information in the NIU".
  :class:`ExclusiveMonitor` is that state: a reservation table at the
  target NIU, keyed by initiator, granting EXOKAY to an exclusive store
  only if the reservation still stands.

Both are *services*: a NoC configuration activates one only when an
attached socket's family row (:mod:`repro.core.protocols`) names it
(:mod:`repro.core.layer`), and these two are all the rows name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.packet import UserBit

#: The paper's single optional packet bit for exclusive accesses.
EXCL_USER_BIT = UserBit(
    name="excl",
    width=1,
    description="AXI exclusive access / OCP lazy synchronization marker",
)


class NocService(enum.Enum):
    """Activatable transaction-layer services."""

    EXCLUSIVE_ACCESS = "EXCLUSIVE_ACCESS"  # one packet bit + NIU state
    LEGACY_LOCK = "LEGACY_LOCK"  # transport-level path locking

    @property
    def packet_bits(self) -> List[UserBit]:
        """User bits this service adds to the packet format."""
        if self is NocService.EXCLUSIVE_ACCESS:
            return [EXCL_USER_BIT]
        return []  # LEGACY_LOCK rides on dedicated opcodes, not user bits

    @property
    def touches_transport(self) -> bool:
        """Paper §3: only the LOCK family leaks below the transaction layer."""
        return self is NocService.LEGACY_LOCK


class ExclusiveResult(enum.Enum):
    """Outcome of an exclusive store at the monitor."""

    EXOKAY = "EXOKAY"  # reservation held — store performed
    OKAY_FAILED = "OKAY_FAILED"  # reservation lost — store NOT performed


@dataclass
class _Reservation:
    address: int
    span: int
    cycle: int


@dataclass
class ExclusiveMonitor:
    """Per-target exclusive-access reservation table (NIU state).

    Semantics follow AXI: an exclusive load establishes a reservation for
    ``(initiator, address-range)``; any store by *another* initiator that
    overlaps the range kills the reservation; an exclusive store succeeds
    (EXOKAY) only if the initiator's reservation is still alive, and
    clears it either way.  ``max_reservations`` bounds the table, which is
    what the gate-count model charges for.
    """

    name: str = "excl-monitor"
    max_reservations: int = 16
    _table: Dict[int, _Reservation] = field(default_factory=dict)
    grants: int = 0
    failures: int = 0
    evictions: int = 0

    def exclusive_load(
        self, initiator: int, address: int, span: int, cycle: int
    ) -> None:
        """Record a reservation (replacing the initiator's previous one)."""
        if span < 1:
            raise ValueError("reservation span must be >= 1 byte")
        if (
            initiator not in self._table
            and len(self._table) >= self.max_reservations
        ):
            # Capacity eviction: drop the oldest reservation.  Real
            # monitors simply fail the evicted master's later exclusive
            # store, which is what this produces.
            oldest = min(self._table.items(), key=lambda kv: kv[1].cycle)
            del self._table[oldest[0]]
            self.evictions += 1
        self._table[initiator] = _Reservation(address=address, span=span, cycle=cycle)

    def observe_store(self, initiator: int, address: int, span: int) -> None:
        """Any ordinary store snoops the table and kills overlapping entries."""
        dead = [
            other
            for other, res in self._table.items()
            if other != initiator and _overlaps(res, address, span)
        ]
        for other in dead:
            del self._table[other]

    def exclusive_store(
        self, initiator: int, address: int, span: int
    ) -> ExclusiveResult:
        """Attempt the exclusive store; the reservation is consumed."""
        res = self._table.pop(initiator, None)
        if res is not None and _overlaps(res, address, span):
            # A successful exclusive store also invalidates everyone
            # else's overlapping reservations (it is a store).
            self.observe_store(initiator, address, span)
            self.grants += 1
            return ExclusiveResult.EXOKAY
        self.failures += 1
        return ExclusiveResult.OKAY_FAILED

    @property
    def live_reservations(self) -> int:
        return len(self._table)


def _overlaps(res: _Reservation, address: int, span: int) -> bool:
    return address < res.address + res.span and res.address < address + span


class LockError(RuntimeError):
    """Illegal lock usage (unlock without lock, double lock...)."""


@dataclass
class LockManager:
    """Target-side state for legacy blocking synchronization (READEX /
    STORE_COND_LOCKED).

    While an initiator holds the lock, every other initiator's request at
    this target is stalled — the blocking behaviour the paper says newer
    exclusive accesses were introduced to avoid.  The transport-level half
    (path reservation through switches) is modelled in the router.  The
    cycles a parked request spends refused are counted once, by the
    target NIU (``TargetNiu.lock_blocked_cycles``).
    """

    name: str = "lock-manager"
    holder: Optional[int] = None

    def may_proceed(self, initiator: int) -> bool:
        """Whether a request from ``initiator`` may access the target now."""
        return self.holder is None or self.holder == initiator

    def acquire(self, initiator: int) -> bool:
        """Try to take the lock; False means the caller must retry/stall."""
        if self.holder is None:
            self.holder = initiator
            return True
        if self.holder == initiator:
            raise LockError(f"{self.name}: initiator {initiator} double-lock")
        return False

    def release(self, initiator: int) -> None:
        if self.holder != initiator:
            raise LockError(
                f"{self.name}: initiator {initiator} releasing lock held by "
                f"{self.holder}"
            )
        self.holder = None
