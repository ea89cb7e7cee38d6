"""Traffic sources: the abstract intent streams masters execute.

Every source implements the :class:`~repro.protocols.base.TrafficSource`
protocol: ``poll(cycle)`` hands out the next intent when ready,
``notify_complete`` lets closed-loop sources react to completions (and to
exclusive-access failures), ``done()`` signals exhaustion.

All randomness is seeded ``random.Random`` — identical runs reproduce
identical intent streams, which the layer-independence experiment (E5)
relies on.

Lookahead protocol (time-skipping kernel)
-----------------------------------------
Sources may additionally implement ``lookahead(cycle)`` so the master
that polls them can tell the kernel when its next poll could possibly
succeed (see :meth:`repro.sim.component.Component.next_event_cycle`).
The return value is one of:

- ``None`` — dormant: no future poll can return an intent until an
  external event (``notify_complete``) re-arms the source;
- ``("at", t)`` — the earliest *kernel cycle* a poll could return an
  intent (polls before ``t`` return None without consuming randomness);
- ``("polls", k)`` — the intent will be returned by the ``k``-th future
  poll.  Used by Bernoulli sources: the per-poll rate draws for the next
  ``k`` polls are performed eagerly (preserving the exact ``rng`` stream
  a poll-every-cycle run consumes) and the generated intent is *armed*;
  the intervening polls consume no randomness and the ``k``-th returns
  the armed intent — byte-identical to never having looked ahead.

``lookahead`` never changes what ``poll`` returns at any cycle; it only
precomputes it.  Sources without the method simply disable skipping for
their master.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.core.transaction import (
    Opcode,
    ResponseStatus,
    Transaction,
    make_read,
    make_write,
)
from repro.sim.kernel import SimulationError
from repro.sim.snapshot import Snapshottable


class WorkloadStallError(SimulationError):
    """A run's cycle budget elapsed with workload traffic provably stuck.

    Raised by :meth:`repro.soc.builder.NocSoc.run_to_completion` in place
    of the kernel's bare budget timeout when at least one master's traffic
    is unfinished, carrying each stuck source's own diagnosis (a halted
    DMA descriptor, a stream starved of credit tokens, an intent the
    socket never accepted) so a program that can never complete fails
    loudly with the *reason*, not a silent timeout.
    """


class TrafficSeedError(ValueError):
    """A random traffic source was built without a reproducible seed.

    ``random.Random(None)`` seeds from the OS entropy pool, which silently
    breaks run-to-run reproducibility — and with it checkpoint/restore
    equivalence and every determinism test.  Sources therefore demand an
    explicit integer seed.
    """


def _require_seed(name: str, seed) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TrafficSeedError(
            f"traffic source {name!r}: seed must be an explicit int for "
            f"reproducibility, got {seed!r} (random.Random(None) would "
            f"seed from OS entropy)"
        )
    return seed


#: Source kinds TrafficSpec can describe (the five classic constructors
#: below plus the DMA descriptor engine from repro.workloads).
TRAFFIC_KINDS = ("scripted", "poisson", "dependent", "stream", "sync", "dma")

_SEEDED_KINDS = ("poisson", "dependent", "sync")


@dataclass
class TrafficSpec:
    """One declarative record describing any traffic source.

    The five ad-hoc source constructors grew five different call shapes;
    this is the single shape that covers them all — ``kind`` picks the
    source class, the shared knobs (``seed``, ``rate``, ``priority``,
    ``pairs``) mean the same thing for every kind, and the kind-specific
    knobs are ignored by kinds that do not use them.  ``validate()`` is
    the one place every argument check (including
    :class:`TrafficSeedError`) happens; the legacy constructors route
    their own validation through it, so a spec and its equivalent direct
    construction accept and reject exactly the same inputs.

    ``master`` may be left ``None`` when the spec sits on an
    ``InitiatorSpec(traffic=...)``; :meth:`build` then stamps the
    initiator's name on the source.

    Kind map (knobs beyond the shared ones):

    - ``"scripted"`` — ``intents`` (list of prebuilt Transactions);
    - ``"poisson"`` — ``count``, ``read_fraction``, ``burst_beats``
      (tuple of candidate lengths), ``beat_bytes``, ``threads``,
      ``tags``, ``posted``;
    - ``"dependent"`` — ``count``, ``think_cycles``, ``read_fraction``,
      ``beat_bytes``;
    - ``"stream"`` — ``base``, ``bytes_total``, ``burst_beats`` (int),
      ``beat_bytes``, ``write``, ``posted``, ``gap_cycles``;
    - ``"sync"`` — ``style``, ``sema_addr``, ``work_addr``,
      ``iterations``, ``work_ops``;
    - ``"dma"`` — ``program`` (list of
      :class:`repro.workloads.DmaDescriptor`).
    """

    kind: str
    master: Optional[str] = None
    seed: Optional[int] = None
    count: int = 100
    rate: float = 0.2
    priority: int = 0
    pairs: Optional[List[Tuple[int, int]]] = None  # (base, size) windows
    read_fraction: Optional[float] = None
    burst_beats: Optional[object] = None  # tuple (poisson) / int (stream)
    beat_bytes: int = 4
    threads: int = 1
    tags: int = 1
    posted: bool = False
    write: bool = True
    base: int = 0
    bytes_total: int = 4096
    gap_cycles: int = 0
    think_cycles: int = 2
    style: str = "lock"
    sema_addr: int = 0
    work_addr: int = 0
    iterations: int = 4
    work_ops: int = 3
    intents: Optional[List[Transaction]] = None
    program: Optional[list] = field(default=None)

    # ------------------------------------------------------------------ #
    def validate(self) -> "TrafficSpec":
        """Check every argument, raising the same errors (same types,
        same messages) the legacy constructors always raised."""
        name = self.master if self.master is not None else f"<{self.kind}>"
        if self.kind not in TRAFFIC_KINDS:
            raise ValueError(
                f"traffic spec {name!r}: unknown kind {self.kind!r}; "
                f"known kinds: {TRAFFIC_KINDS}"
            )
        if self.kind == "poisson":
            if not 0.0 < self.rate <= 1.0:
                raise ValueError("rate must be in (0, 1]")
            if not self.pairs:
                raise ValueError("need at least one address range")
            if self.burst_beats is not None and isinstance(
                self.burst_beats, bool
            ):
                raise ValueError(
                    f"traffic spec {name!r}: burst_beats must be an int or "
                    f"a tuple of ints"
                )
        elif self.kind == "dependent":
            if not self.pairs:
                raise ValueError("need at least one address range")
        elif self.kind == "stream":
            if self.bytes_total <= 0:
                raise ValueError(
                    f"traffic spec {name!r}: bytes_total must be > 0"
                )
            if self.burst_beats is not None and not isinstance(
                self.burst_beats, int
            ):
                raise ValueError(
                    f"traffic spec {name!r}: stream burst_beats must be a "
                    f"single int, got {self.burst_beats!r}"
                )
        elif self.kind == "sync":
            if self.style not in ("lock", "excl"):
                raise ValueError("style must be 'lock' or 'excl'")
        elif self.kind == "scripted":
            if self.intents is None:
                raise ValueError(
                    f"traffic spec {name!r}: scripted kind needs "
                    f"intents=[Transaction, ...]"
                )
        elif self.kind == "dma":
            if not self.program:
                raise ValueError(
                    f"traffic spec {name!r}: dma kind needs a non-empty "
                    f"program=[DmaDescriptor, ...]"
                )
        if self.kind in _SEEDED_KINDS:
            _require_seed(name, self.seed)
        return self

    # ------------------------------------------------------------------ #
    def build(self, name: Optional[str] = None):
        """Construct the concrete source this spec describes.

        ``name`` (typically the initiator's name, supplied by the
        builder) overrides ``master``; one of the two must be set for
        every kind that stamps a master name on its intents.
        """
        self.validate()
        if name is None:
            name = self.master
        if self.kind == "scripted":
            return ScriptedTraffic(self.intents)
        if name is None:
            raise ValueError(
                f"TrafficSpec(kind={self.kind!r}) needs a master name — "
                f"set master=... or put the spec on InitiatorSpec(traffic=...)"
            )
        if self.kind == "poisson":
            beats = self.burst_beats
            if beats is None:
                beats = (1, 4)
            elif isinstance(beats, int):
                beats = (beats,)
            else:
                beats = tuple(beats)
            return PoissonTraffic(
                name,
                self.seed,
                self.count,
                list(self.pairs),
                rate=self.rate,
                read_fraction=(
                    0.6 if self.read_fraction is None else self.read_fraction
                ),
                burst_beats=beats,
                beat_bytes=self.beat_bytes,
                threads=self.threads,
                tags=self.tags,
                priority=self.priority,
                posted_writes=self.posted,
            )
        if self.kind == "dependent":
            return DependentTraffic(
                name,
                self.seed,
                self.count,
                list(self.pairs),
                think_cycles=self.think_cycles,
                read_fraction=(
                    0.8 if self.read_fraction is None else self.read_fraction
                ),
                beat_bytes=self.beat_bytes,
                priority=self.priority,
            )
        if self.kind == "stream":
            return StreamTraffic(
                name,
                base=self.base,
                bytes_total=self.bytes_total,
                burst_beats=(
                    8 if self.burst_beats is None else self.burst_beats
                ),
                beat_bytes=self.beat_bytes,
                write=self.write,
                posted=self.posted,
                priority=self.priority,
                gap_cycles=self.gap_cycles,
            )
        if self.kind == "sync":
            return SyncWorkload(
                name,
                self.style,
                self.sema_addr,
                self.work_addr,
                iterations=self.iterations,
                work_ops=self.work_ops,
                seed=self.seed,
            )
        # "dma": the engine lives in the workloads subsystem; imported
        # lazily so repro.ip has no import-time dependency on it.
        from repro.workloads.dma import DmaEngine

        return DmaEngine(name, self.program, priority=self.priority)


class ScriptedTraffic(Snapshottable):
    """Issue a fixed list of intents in order, as fast as accepted."""

    _snapshot_fields = ("_next", "completions")

    def __init__(self, intents: Iterable[Transaction]) -> None:
        self._intents: List[Transaction] = list(intents)
        TrafficSpec(kind="scripted", intents=self._intents).validate()
        self._next = 0
        self.completions: List[Tuple[int, int, ResponseStatus]] = []

    def poll(self, cycle: int) -> Optional[Transaction]:
        if self._next >= len(self._intents):
            return None
        txn = self._intents[self._next]
        self._next += 1
        return txn

    def lookahead(self, cycle: int):
        if self._next >= len(self._intents):
            return None  # exhausted: dormant forever
        return ("at", cycle)  # always ready while intents remain

    def done(self) -> bool:
        return self._next >= len(self._intents)

    def notify_complete(
        self, txn_id: int, cycle: int, status: ResponseStatus
    ) -> None:
        self.completions.append((txn_id, cycle, status))


class PoissonTraffic(Snapshottable):
    """Open-loop random traffic with a Bernoulli-per-cycle injection rate.

    Parameters
    ----------
    rate:
        Probability of wanting to inject each cycle (offered load knob).
    address_ranges:
        ``(base, size)`` windows the source targets, chosen uniformly.
    read_fraction:
        Probability an intent is a read.
    burst_beats:
        Candidate burst lengths, chosen uniformly.
    threads / tags:
        Spread for ``txn.thread`` / ``txn.txn_tag`` (protocol-dependent
        meaning: OCP ThreadID, AXI/AVCI ID).
    """

    _snapshot_fields = ("rng", "remaining", "completions", "_armed", "_predrawn")

    def __init__(
        self,
        name: str,
        seed: int,
        count: int,
        address_ranges: List[Tuple[int, int]],
        rate: float = 0.2,
        read_fraction: float = 0.6,
        burst_beats: Tuple[int, ...] = (1, 4),
        beat_bytes: int = 4,
        threads: int = 1,
        tags: int = 1,
        priority: int = 0,
        posted_writes: bool = False,
    ) -> None:
        # All argument checking (rate window, range list, seed) lives in
        # the declarative spec — construct-and-validate one so direct
        # construction and a TrafficSpec reject identically.
        TrafficSpec(
            kind="poisson",
            master=name,
            seed=seed,
            rate=rate,
            pairs=list(address_ranges),
        ).validate()
        self.name = name
        self.rng = random.Random(seed)
        self.remaining = count
        self.address_ranges = list(address_ranges)
        self.rate = rate
        self.read_fraction = read_fraction
        self.burst_beats = burst_beats
        self.beat_bytes = beat_bytes
        self.threads = threads
        self.tags = tags
        self.priority = priority
        self.posted_writes = posted_writes
        self.completions: List[Tuple[int, int, ResponseStatus]] = []
        self._armed: Optional[Transaction] = None
        # True when lookahead() already consumed the successful rate draw
        # for the next poll; that poll skips its own draw and generates.
        self._predrawn = False

    def _generate(self) -> Transaction:
        base, size = self.rng.choice(self.address_ranges)
        beats = self.rng.choice(self.burst_beats)
        span = beats * self.beat_bytes
        # Align so the burst stays inside the range and on a beat boundary.
        slots = max(1, (size - span) // self.beat_bytes)
        address = base + self.rng.randrange(slots) * self.beat_bytes
        thread = self.rng.randrange(self.threads)
        tag = self.rng.randrange(self.tags)
        if self.rng.random() < self.read_fraction:
            txn = make_read(
                address,
                beats=beats,
                beat_bytes=self.beat_bytes,
                master=self.name,
            )
        else:
            data = [self.rng.randrange(1 << 32) for _ in range(beats)]
            txn = make_write(
                address,
                data,
                beat_bytes=self.beat_bytes,
                posted=self.posted_writes,
                master=self.name,
            )
        txn.thread = thread
        txn.txn_tag = tag
        txn.priority = self.priority
        return txn

    def poll(self, cycle: int) -> Optional[Transaction]:
        if self.remaining <= 0:
            return None
        if self._armed is None:
            if self._predrawn:
                self._predrawn = False  # lookahead already drew the success
            elif self.rng.random() >= self.rate:
                return None
            self._armed = self._generate()
        txn = self._armed
        self._armed = None
        self.remaining -= 1
        return txn

    def lookahead(self, cycle: int):
        """Draw the Bernoulli sequence for the coming polls eagerly.

        Performs exactly the rate draws a poll-per-cycle run would
        perform — one per future poll, stopping at the first success —
        so the rng stream is byte-identical to never skipping.  Only the
        rate draws are consumed here: the intent itself (whose
        construction draws more randomness *and* allocates the global
        transaction id) is generated by the winning poll, at the same
        cycle and in the same cross-master order as a poll-every-cycle
        run.  The master must not call :meth:`poll` again until the
        returned number of polls have notionally elapsed (it converts
        the count to an absolute cycle; see
        ``ProtocolMaster.next_event_cycle``).
        """
        if self.remaining <= 0:
            return None  # dormant: remaining never grows back
        if self._armed is not None or self._predrawn:
            return ("polls", 1)  # success already in hand
        polls = 1
        rng_random = self.rng.random
        rate = self.rate
        while rng_random() >= rate:
            polls += 1
        self._predrawn = True
        return ("polls", polls)

    def done(self) -> bool:
        return self.remaining <= 0 and self._armed is None and not self._predrawn

    def notify_complete(
        self, txn_id: int, cycle: int, status: ResponseStatus
    ) -> None:
        self.completions.append((txn_id, cycle, status))


class DependentTraffic(Snapshottable):
    """Closed-loop, CPU-like: the next intent issues ``think_cycles``
    after the previous one completes (dependent loads)."""

    _snapshot_fields = ("rng", "remaining", "_ready_at", "_waiting", "completions")

    def __init__(
        self,
        name: str,
        seed: int,
        count: int,
        address_ranges: List[Tuple[int, int]],
        think_cycles: int = 2,
        read_fraction: float = 0.8,
        beat_bytes: int = 4,
        priority: int = 0,
    ) -> None:
        TrafficSpec(
            kind="dependent",
            master=name,
            seed=seed,
            pairs=list(address_ranges),
        ).validate()
        self.name = name
        self.rng = random.Random(seed)
        self.remaining = count
        self.address_ranges = list(address_ranges)
        self.think_cycles = think_cycles
        self.read_fraction = read_fraction
        self.beat_bytes = beat_bytes
        self.priority = priority
        self._ready_at = 0
        self._waiting = False
        self.completions: List[Tuple[int, int, ResponseStatus]] = []

    def poll(self, cycle: int) -> Optional[Transaction]:
        if self.remaining <= 0 or self._waiting or cycle < self._ready_at:
            return None
        base, size = self.rng.choice(self.address_ranges)
        address = base + self.rng.randrange(max(1, size // 4)) * 4
        if self.rng.random() < self.read_fraction:
            txn = make_read(address, master=self.name)
        else:
            txn = make_write(
                address, [self.rng.randrange(1 << 32)], master=self.name
            )
        txn.priority = self.priority
        self.remaining -= 1
        self._waiting = True
        return txn

    def lookahead(self, cycle: int):
        if self.remaining <= 0 or self._waiting:
            return None  # dormant until notify_complete re-arms us
        return ("at", max(cycle, self._ready_at))  # think window

    def done(self) -> bool:
        return self.remaining <= 0 and not self._waiting

    def notify_complete(
        self, txn_id: int, cycle: int, status: ResponseStatus
    ) -> None:
        self._waiting = False
        self._ready_at = cycle + self.think_cycles
        self.completions.append((txn_id, cycle, status))


class StreamTraffic(Snapshottable):
    """DMA-like: back-to-back long INCR bursts sweeping a region."""

    _snapshot_fields = ("bursts_remaining", "_cursor", "_ready_at", "completions")

    def __init__(
        self,
        name: str,
        base: int,
        bytes_total: int,
        burst_beats: int = 8,
        beat_bytes: int = 4,
        write: bool = True,
        posted: bool = False,
        priority: int = 0,
        gap_cycles: int = 0,
    ) -> None:
        TrafficSpec(
            kind="stream",
            master=name,
            bytes_total=bytes_total,
            burst_beats=burst_beats,
        ).validate()
        self.name = name
        self.base = base
        self.burst_beats = burst_beats
        self.beat_bytes = beat_bytes
        self.write = write
        self.posted = posted
        self.priority = priority
        self.gap_cycles = gap_cycles
        burst_bytes = burst_beats * beat_bytes
        self.bursts_remaining = max(1, bytes_total // burst_bytes)
        self._cursor = base
        self._ready_at = 0
        self.completions: List[Tuple[int, int, ResponseStatus]] = []

    def poll(self, cycle: int) -> Optional[Transaction]:
        if self.bursts_remaining <= 0 or cycle < self._ready_at:
            return None
        if self.write:
            data = [i & 0xFFFFFFFF for i in range(self.burst_beats)]
            txn = make_write(
                self._cursor,
                data,
                beat_bytes=self.beat_bytes,
                posted=self.posted,
                master=self.name,
            )
        else:
            txn = make_read(
                self._cursor,
                beats=self.burst_beats,
                beat_bytes=self.beat_bytes,
                master=self.name,
            )
        txn.priority = self.priority
        self._cursor += self.burst_beats * self.beat_bytes
        self.bursts_remaining -= 1
        self._ready_at = cycle + self.gap_cycles
        return txn

    def lookahead(self, cycle: int):
        if self.bursts_remaining <= 0:
            return None
        return ("at", max(cycle, self._ready_at))

    def done(self) -> bool:
        return self.bursts_remaining <= 0

    def notify_complete(
        self, txn_id: int, cycle: int, status: ResponseStatus
    ) -> None:
        self.completions.append((txn_id, cycle, status))


class SyncWorkload(Snapshottable):
    """Critical-section loop in either synchronization style (E3).

    ``style="lock"`` (legacy blocking, AHB/VCI): READEX the semaphore
    (locks the path and target), do the critical-section work, release
    with STORE_COND_LOCKED.

    ``style="excl"`` (non-blocking, AXI/OCP): exclusive-load the
    semaphore, exclusive-store it; on a lost reservation retry.  Critical
    section work runs only after a successful exclusive store, and the
    semaphore is freed with a plain store.
    """

    _snapshot_fields = (
        "rng",
        "iterations_left",
        "_state",
        "_work_left",
        "_inflight_id",
        "retries",
        "sections_completed",
        "completions",
    )

    def __init__(
        self,
        name: str,
        style: str,
        sema_addr: int,
        work_addr: int,
        iterations: int = 4,
        work_ops: int = 3,
        seed: int = 0,
    ) -> None:
        TrafficSpec(
            kind="sync", master=name, seed=seed, style=style
        ).validate()
        self.name = name
        self.style = style
        self.sema_addr = sema_addr
        self.work_addr = work_addr
        self.iterations_left = iterations
        self.work_ops = work_ops
        self.rng = random.Random(seed)
        self._state = "idle"
        self._work_left = 0
        self._inflight_id: Optional[int] = None
        self.retries = 0
        self.sections_completed = 0
        self.completions: List[Tuple[int, int, ResponseStatus]] = []

    # ------------------------------------------------------------------ #
    def _intent(self) -> Transaction:
        if self.style == "lock":
            if self._state == "idle":
                self._state = "locking"
                return Transaction(
                    opcode=Opcode.READEX,
                    address=self.sema_addr,
                    master=self.name,
                )
            if self._state == "working":
                if self._work_left == 0:
                    self._state = "releasing"
                    return Transaction(
                        opcode=Opcode.STORE_COND_LOCKED,
                        address=self.sema_addr,
                        data=[0],
                        master=self.name,
                    )
                self._work_left -= 1
                return make_read(self.work_addr, master=self.name)
        else:
            if self._state == "idle":
                self._state = "excl_load"
                txn = make_read(self.sema_addr, master=self.name)
                txn.excl = True
                return txn
            if self._state == "excl_store":
                self._state = "excl_store_wait"
                txn = make_write(self.sema_addr, [1], master=self.name)
                txn.excl = True
                return txn
            if self._state == "working":
                if self._work_left == 0:
                    self._state = "releasing"
                    return make_write(self.sema_addr, [0], master=self.name)
                self._work_left -= 1
                return make_read(self.work_addr, master=self.name)
        raise AssertionError(f"{self.name}: no intent in state {self._state}")

    def poll(self, cycle: int) -> Optional[Transaction]:
        if self.iterations_left <= 0:
            return None
        if self._inflight_id is not None:
            return None  # strictly serial state machine
        if self._state in ("locking", "excl_load", "excl_store_wait", "releasing"):
            return None  # waiting on completion callback
        txn = self._intent()
        self._inflight_id = txn.txn_id
        return txn

    def lookahead(self, cycle: int):
        if self.iterations_left <= 0 or self._inflight_id is not None:
            return None  # dormant: only a completion advances the FSM
        if self._state in ("locking", "excl_load", "excl_store_wait", "releasing"):
            return None
        return ("at", cycle)  # an intent is ready right now

    def done(self) -> bool:
        return self.iterations_left <= 0

    def notify_complete(
        self, txn_id: int, cycle: int, status: ResponseStatus
    ) -> None:
        self.completions.append((txn_id, cycle, status))
        if txn_id != self._inflight_id:
            raise AssertionError(
                f"{self.name}: completion for {txn_id}, expected "
                f"{self._inflight_id}"
            )
        self._inflight_id = None
        if self.style == "lock":
            if self._state == "locking":
                self._state = "working"
                self._work_left = self.work_ops
            elif self._state == "releasing":
                self._state = "idle"
                self.sections_completed += 1
                self.iterations_left -= 1
        else:
            if self._state == "excl_load":
                self._state = "excl_store"
            elif self._state == "excl_store_wait":
                if status is ResponseStatus.EXOKAY:
                    self._state = "working"
                    self._work_left = self.work_ops
                else:
                    self.retries += 1
                    self._state = "idle"  # reservation lost: retry
            elif self._state == "releasing":
                self._state = "idle"
                self.sections_completed += 1
                self.iterations_left -= 1
