"""Staged bounded FIFO used for all inter-component communication.

A ``SimQueue`` separates the *committed* region (items visible to the
consumer) from the *staged* region (items pushed during the current cycle,
invisible until the kernel calls :meth:`commit`).  This two-phase behaviour
gives every producer→consumer hop a latency of exactly one cycle and makes
results independent of the order components are ticked in.

Capacity accounting covers committed **plus** staged items, which models
credit-based flow control with a credit-return latency of zero: the
producer may only push when the consumer's buffer has a free slot this
cycle.  The multi-cycle credit loop of a virtual-channel link is modelled
on top of this primitive, as per-VC integers in the physical layer's
:class:`~repro.phys.link.VcPhysicalLink`.

Activity contract
-----------------
Queues are the kernel's wake fabric, in one direction only: a component
registered with :meth:`wake_on_push` is woken when staged items *commit*
(the moment they become consumer-visible).  A pop wakes nobody.
Producers never sleep on space: a component holding work blocked on a
full queue stays scheduled (the stay-hot rule of
:meth:`~repro.sim.component.Component.next_event_cycle`), so the slot a
pop frees is seen by the producer's next tick without a wake.  A queue
registered with a :class:`~repro.sim.kernel.Simulator` also marks itself
on the kernel's per-cycle *dirty list* at first push, so the kernel
commits only queues that actually staged something instead of iterating
every queue every cycle.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.sim.stats import Counters


class SimQueue:
    """Bounded FIFO with next-cycle push visibility.

    Parameters
    ----------
    name:
        Identifier used in traces and error messages.
    capacity:
        Maximum number of items committed + staged.  ``None`` means
        unbounded (useful for sink-side scoreboards in tests).
    """

    COUNTERS = Counters("queues", ("total_pushed", "total_popped", "high_watermark"))

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
    )

    def __init__(self, name: str, capacity: Optional[int] = 4) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"queue {name!r}: capacity must be >= 1 or None")
        self.name = name
        self.capacity = capacity
        # A plain list: pop(0) over a few items moves a few pointers, and
        # an empty list is 56 bytes where collections' FIFO block is 760.
        self._committed: List[Any] = []
        self._staged: List[Any] = []
        # Committed + staged count, maintained incrementally: capacity
        # checks are the single hottest queue operation (every router
        # output, link gate and injection decision), so they must not
        # re-measure both regions each time.
        self._occ = 0
        self.total_pushed = 0
        self.total_popped = 0
        self.high_watermark = 0
        # Activity-kernel hooks: set by Simulator.add_queue / wake_on_push.
        self._kernel = None
        self._dirty = False
        self._push_waiters: Tuple[Any, ...] = ()

    # ------------------------------------------------------------------ #
    # wake registration (once, at wiring time; waiters are an immutable
    # tuple so the hot wake loop iterates without copying)
    # ------------------------------------------------------------------ #
    def wake_on_push(self, component) -> None:
        """Wake ``component`` whenever staged items commit (new items
        become consumer-visible)."""
        if component not in self._push_waiters:
            self._push_waiters += (component,)

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
        if not 0 <= index < len(self._committed):
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
        return self._committed.pop(0)

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

    @property
    def occupancy(self) -> int:
        """Committed + staged items (what capacity accounting sees)."""
        return self._occ

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimQueue {self.name!r} committed={len(self._committed)} "
            f"staged={len(self._staged)} cap={self.capacity}>"
        )
