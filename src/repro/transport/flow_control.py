"""Credit-based link-level flow control.

The staged :class:`~repro.sim.queue.SimQueue` already provides ideal
(zero-return-latency) credits: a producer may push only while the
consumer's buffer has space *this* cycle.  :class:`CreditCounter` adds the
realistic variant with a configurable credit-return delay, used by the
physical-layer link model and by tests that check the fabric never
overruns a buffer even with slow credit loops.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim.snapshot import Snapshottable


class CreditCounter(Snapshottable):
    """Sender-side credit state for one link.

    The sender calls :meth:`consume` per flit sent; the receiver calls
    :meth:`give_back` per flit drained.  Returned credits become usable
    ``return_latency`` cycles later, via :meth:`advance` called once per
    cycle.  A link that derives the drained count from buffer occupancy
    does all three in one :meth:`step`.
    """

    _snapshot_fields = (
        "_available",
        "_in_flight",
        "_now",
        "total_consumed",
        "total_returned",
    )

    # Slotted: one counter per link VC, consulted every phit cycle of
    # every serialized link — attribute access is the hot operation.
    __slots__ = (
        "capacity",
        "return_latency",
        "_available",
        "_in_flight",
        "_now",
        "_returning",
        "total_consumed",
        "total_returned",
    )

    def __init__(self, capacity: int, return_latency: int = 1) -> None:
        if capacity < 1:
            raise ValueError("credit capacity must be >= 1")
        if return_latency < 0:
            raise ValueError("credit return latency must be >= 0")
        self.capacity = capacity
        self.return_latency = return_latency
        self._available = capacity
        self._in_flight: List[Tuple[int, int]] = []  # (due_cycle, count)
        self._now = 0
        # Sum of the _in_flight counts, kept incrementally (derived: not
        # captured, rebuilt on restore like SimQueue._occ).
        self._returning = 0
        self.total_consumed = 0
        self.total_returned = 0

    def can_send(self, count: int = 1) -> bool:
        return self._available >= count

    def consume(self, count: int = 1) -> None:
        if count > self._available:
            raise RuntimeError(
                f"credit underflow: want {count}, have {self._available}"
            )
        self._available -= count
        self.total_consumed += count

    def give_back(self, count: int = 1) -> None:
        """Receiver returns ``count`` credits (usable after the delay)."""
        if count < 1:
            raise ValueError("must return >= 1 credit")
        if self.return_latency == 0:
            self._restore(count)
        else:
            self._in_flight.append((self._now + self.return_latency, count))
            self._returning += count

    def advance(self) -> None:
        """Advance one cycle; mature in-flight credit returns."""
        self._now += 1
        while self._in_flight and self._in_flight[0][0] <= self._now:
            __, count = self._in_flight.pop(0)
            self._returning -= count
            self._restore(count)

    def step(self, held: int) -> None:
        """One sender-side cycle: :meth:`advance`, then give back every
        outstanding credit that is neither already in the return loop nor
        among the ``held`` ones (flits still on the wires or buffered
        downstream).  O(1) while the counter is whole: nothing is
        outstanding, so nothing can be returning or held."""
        if self._available == self.capacity:
            self._now += 1
            return
        self.advance()
        freed = self.capacity - self._available - self._returning - held
        if freed > 0:
            self.give_back(freed)

    def _restore(self, count: int) -> None:
        if self._available + count > self.capacity:
            raise RuntimeError(
                f"credit overflow: {self._available} + {count} > {self.capacity}"
            )
        self._available += count
        self.total_returned += count

    @property
    def outstanding(self) -> int:
        """Credits currently held by the sender or in the return loop."""
        return self.capacity - self._available

    @property
    def in_return_loop(self) -> int:
        """Credits given back but not yet matured (still in flight)."""
        return self._returning

    def _restore_state(self, state) -> None:
        super()._restore_state(state)
        self._returning = sum(count for _due, count in self._in_flight)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CreditCounter {self._available}/{self.capacity} "
            f"latency={self.return_latency}>"
        )
