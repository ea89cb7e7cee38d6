"""Staged bounded FIFO used for all inter-component communication.

A ``SimQueue`` separates the *committed* region (items visible to the
consumer) from the *staged* region (items pushed during the current cycle,
invisible until the kernel calls :meth:`commit`).  This two-phase behaviour
gives every producer→consumer hop a latency of exactly one cycle and makes
results independent of the order components are ticked in.

Capacity accounting covers committed **plus** staged items, which models
credit-based flow control with a credit-return latency of zero: the
producer may only push when the consumer's buffer has a free slot this
cycle.  Explicit multi-cycle credit loops are modelled at the transport
layer on top of this primitive.

Activity contract
-----------------
Queues are the kernel's wake fabric.  A component registered with
:meth:`wake_on_push` is woken when staged items *commit* (the moment they
become consumer-visible); one registered with :meth:`wake_on_pop` is woken
when an item is popped (the moment producer-side space frees up).  A queue
registered with a :class:`~repro.sim.kernel.Simulator` also marks itself
on the kernel's per-cycle *dirty list* at first push, so the kernel
commits only queues that actually staged something instead of iterating
every queue every cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterator, List, Optional, Tuple

from repro.sim.snapshot import Snapshottable


class SimQueue(Snapshottable):
    """Bounded FIFO with next-cycle push visibility.

    Parameters
    ----------
    name:
        Identifier used in traces and error messages.
    capacity:
        Maximum number of items committed + staged.  ``None`` means
        unbounded (useful for sink-side scoreboards in tests).
    """

    # Slotted: queue attribute access (_occ, _committed, capacity) is
    # the single hottest operation in the simulator.
    __slots__ = (
        "name",
        "capacity",
        "_committed",
        "_staged",
        "_occ",
        "total_pushed",
        "total_popped",
        "high_watermark",
        "_kernel",
        "_dirty",
        "_push_waiters",
        "_pop_waiters",
    )

    def __init__(self, name: str, capacity: Optional[int] = 4) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"queue {name!r}: capacity must be >= 1 or None")
        self.name = name
        self.capacity = capacity
        self._committed: Deque[Any] = deque()
        self._staged: List[Any] = []
        # Committed + staged count, maintained incrementally: capacity
        # checks are the single hottest queue operation (every router
        # output, link gate and injection decision), so they must not
        # re-measure both regions each time.
        self._occ = 0
        self.total_pushed = 0
        self.total_popped = 0
        self.high_watermark = 0
        # Activity-kernel hooks: set by Simulator.add_queue / wake_on_*.
        self._kernel = None
        self._dirty = False
        self._push_waiters: Tuple[Any, ...] = ()
        self._pop_waiters: Tuple[Any, ...] = ()

    # ------------------------------------------------------------------ #
    # wake registration (once, at wiring time; waiters are immutable
    # tuples so the hot wake loops iterate without copying)
    # ------------------------------------------------------------------ #
    def wake_on_push(self, component) -> None:
        """Wake ``component`` whenever staged items commit (new items
        become consumer-visible)."""
        if component not in self._push_waiters:
            self._push_waiters += (component,)

    def wake_on_pop(self, component) -> None:
        """Wake ``component`` whenever an item is popped (space frees)."""
        if component not in self._pop_waiters:
            self._pop_waiters += (component,)

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    def can_push(self, count: int = 1) -> bool:
        """True if ``count`` more items fit this cycle."""
        capacity = self.capacity
        return capacity is None or self._occ + count <= capacity

    def push(self, item: Any) -> None:
        """Stage ``item``; it becomes visible after the next commit."""
        capacity = self.capacity
        if capacity is not None and self._occ >= capacity:
            raise OverflowError(
                f"queue {self.name!r} is full "
                f"({len(self._committed)} committed + {len(self._staged)} staged"
                f" / capacity {self.capacity})"
            )
        self._staged.append(item)
        self._occ += 1
        self.total_pushed += 1
        if not self._dirty:
            self._dirty = True
            kernel = self._kernel
            if kernel is not None:
                kernel._dirty_queues.append(self)

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of committed (consumer-visible) items."""
        return len(self._committed)

    def __bool__(self) -> bool:
        return bool(self._committed)

    def __iter__(self) -> Iterator[Any]:
        """Iterate committed items front-to-back without consuming them."""
        return iter(self._committed)

    def peek(self, index: int = 0) -> Any:
        """Return the committed item at ``index`` without removing it."""
        if index >= len(self._committed):
            raise IndexError(
                f"queue {self.name!r}: peek({index}) with only "
                f"{len(self._committed)} committed items"
            )
        return self._committed[index]

    def pop(self) -> Any:
        """Remove and return the oldest committed item (visible immediately)."""
        if not self._committed:
            raise IndexError(f"queue {self.name!r} is empty")
        self.total_popped += 1
        self._occ -= 1
        item = self._committed.popleft()
        for waiter in self._pop_waiters:
            waiter.wake()
        return item

    # ------------------------------------------------------------------ #
    # kernel side
    # ------------------------------------------------------------------ #
    def commit(self) -> None:
        """Move staged items into the committed region (kernel only)."""
        self._dirty = False
        if self._staged:
            self._committed.extend(self._staged)
            self._staged.clear()
            if len(self._committed) > self.high_watermark:
                self.high_watermark = len(self._committed)
            for waiter in self._push_waiters:
                waiter.wake()

    # ------------------------------------------------------------------ #
    # state capture
    # ------------------------------------------------------------------ #
    _snapshot_fields = (
        "_committed",
        "_staged",
        "total_pushed",
        "total_popped",
        "high_watermark",
        "_dirty",
    )

    def _restore_state(self, state) -> None:
        # _committed is restored in place by the base hook (never
        # rebound).  Derived occupancy is recomputed; dirty-list
        # membership is the kernel's to rebuild
        # (Simulator._restore_state), since an unregistered queue has no
        # dirty list to join.
        super()._restore_state(state)
        self._occ = len(self._committed) + len(self._staged)

    @property
    def staged_count(self) -> int:
        return len(self._staged)

    @property
    def occupancy(self) -> int:
        """Committed + staged items (what capacity accounting sees)."""
        return self._occ

    def drain(self, include_staged: bool = False) -> List[Any]:
        """Pop every committed item (test/scoreboard convenience).

        Staged items are **not** drained by default: they are not yet
        consumer-visible, so a drain models a consumer emptying its
        buffer mid-cycle.  Pass ``include_staged=True`` to also discard
        the staged region (e.g. when resetting a queue between test
        phases); discarded staged items count as popped so the
        ``total_pushed - total_popped == occupancy`` invariant holds.
        """
        items = list(self._committed)
        self.total_popped += len(items)
        self._committed.clear()
        self._occ -= len(items)
        if include_staged and self._staged:
            items.extend(self._staged)
            self.total_popped += len(self._staged)
            self._occ -= len(self._staged)
            self._staged.clear()
        if items:
            for waiter in self._pop_waiters:
                waiter.wake()
        return items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimQueue {self.name!r} committed={len(self._committed)} "
            f"staged={len(self._staged)} cap={self.capacity}>"
        )
