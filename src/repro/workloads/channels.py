"""Stream channels: the token counters DMA descriptor programs sync on.

A :class:`StreamChannel` is a cumulative counter of *tokens* — one token
per completed burst (or compute step) of the descriptor that signals it.
Descriptors that ``wait`` on a channel become eligible burst-by-burst as
the count rises; producer/consumer credit loops are just two channels
wired in opposite directions (see
:mod:`repro.workloads.scenarios.stream_pipeline`).

Determinism contract
--------------------
Channels couple *different* masters, so token visibility must not depend
on the order masters happen to tick within a cycle (which differs between
a consumer registered before vs. after its producer, and between the
strict and activity kernels when the consumer was parked).  Tokens are
therefore **commit-delayed like queues**: a token put at cycle ``t`` is
visible to ``level()`` only from cycle ``t + 1``.  ``put`` also wakes
every master registered as a waiter — a wake schedules the component for
the *next* cycle, which is exactly when the token becomes visible.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List

__all__ = ["StreamChannel"]


class StreamChannel:
    """A named, monotone token counter with next-cycle visibility.

    ``initial`` tokens (credit preload) are stamped at cycle ``-1`` so
    they are visible from cycle 0 onward.

    State is the put-cycle list alone; a checkpoint carries the channel
    once, however many engines are wired to it.  The waiter registry is
    wiring, filled by ``bind_master``.
    """

    def __init__(self, name: str, initial: int = 0) -> None:
        if initial < 0:
            raise ValueError(f"channel {name!r}: initial tokens must be >= 0")
        self.name = name
        self.initial = initial
        # Monotone non-decreasing cycle stamps, one per token ever put.
        self._puts: List[int] = [-1] * initial
        self._waiters: list = []  # masters to wake on put (wiring)

    # ------------------------------------------------------------------ #
    def put(self, cycle: int, count: int = 1) -> None:
        """Add ``count`` tokens, visible from ``cycle + 1``."""
        self._puts.extend([cycle] * count)
        for master in self._waiters:
            master.wake()

    def level(self, cycle: int) -> int:
        """Tokens visible at ``cycle`` (puts strictly before it)."""
        return bisect_left(self._puts, cycle)

    def total(self) -> int:
        """Tokens ever put, ignoring visibility (for reports/tests)."""
        return len(self._puts)

    def visible_at(self, k: int) -> int:
        """First cycle the ``k``-th token (1-based) is visible, assuming
        it has already been put; used by lookahead to park precisely."""
        return self._puts[k - 1] + 1

    def add_waiter(self, master) -> None:
        if master not in self._waiters:
            self._waiters.append(master)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StreamChannel({self.name!r}, tokens={len(self._puts)})"
