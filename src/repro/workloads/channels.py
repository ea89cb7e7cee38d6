"""Stream channels: the token counters DMA descriptor programs sync on.

A :class:`StreamChannel` declares a channel: a name and its tokens before
cycle 0, no run state.  Each SoC keeps one :class:`TokenLog` per declared
name (``Simulator.channels``), a cumulative counter of *tokens*: one
token per completed burst (or compute step) of the descriptor that
signals it.  Descriptors that ``wait`` on a channel become eligible
burst-by-burst as the count rises; producer/consumer credit loops are
just two channels wired in opposite directions (see
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
from dataclasses import dataclass
from typing import List

__all__ = ["StreamChannel", "TokenLog"]


@dataclass(frozen=True)
class StreamChannel:
    """A channel declaration: its name and its ``initial`` tokens (a
    credit preload)."""

    name: str
    initial: int = 0

    def __post_init__(self) -> None:
        if self.initial < 0:
            raise ValueError(f"channel {self.name!r}: initial tokens must be >= 0")


class TokenLog:
    """One SoC's run state of a channel: a monotone token counter with
    next-cycle visibility; ``initial`` tokens are stamped at cycle ``-1``
    so they are visible from cycle 0 onward."""

    def __init__(self, channel: StreamChannel) -> None:
        self.name = channel.name
        # Monotone non-decreasing cycle stamps, one per token ever put.
        self._puts: List[int] = [-1] * channel.initial
        self._waiters: list = []  # masters to wake on put (wiring)

    # ------------------------------------------------------------------ #
    def put(self, cycle: int) -> None:
        """Add a token, visible from ``cycle + 1``."""
        self._puts.append(cycle)
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
