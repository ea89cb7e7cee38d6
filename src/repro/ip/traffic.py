"""Traffic sources: the abstract intent streams masters execute.

Every source implements the :class:`~repro.protocols.base.TrafficSource`
protocol: ``poll(cycle)`` hands out the next intent when ready,
``notify_complete`` lets closed-loop sources react to completions (and to
exclusive-access failures), ``done()`` signals exhaustion.

All randomness is seeded ``random.Random`` — identical runs reproduce
identical intent streams, which the layer-independence experiment (E5)
relies on.  A source draws each intent's ``txn_id`` from ``txn_ids``,
the SoC's transaction-id stream, which its master hands it when built.

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
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.core.transaction import (
    BEAT_WIDTHS,
    Opcode,
    ResponseStatus,
    Transaction,
    make_read,
    make_write,
)
from repro.core.checks import Check, check, knob
from repro.sim.kernel import SimulationError
from repro.sim.stats import Counters


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


@dataclass
class TrafficSpec:
    """One declarative record describing any traffic source — the only
    way to make one.

    ``kind`` picks the source class; the shared knobs (``seed``,
    ``rate``, ``priority``, ``pairs``) mean the same thing for every
    kind, and the kind-specific knobs are ignored by kinds that do not
    use them.  Every knob has exactly one default, the one declared
    here.  Every argument check (including :class:`TrafficSeedError`) is
    a row of :data:`TRAFFIC_ROWS`, which ``validate()`` runs and
    :meth:`build` runs before constructing the source, so a bad knob
    fails at build time with an error naming the spec and the knob.

    ``master`` may be left ``None`` when the spec sits on an
    ``InitiatorSpec(traffic=...)``; :meth:`build` then stamps the
    initiator's name on the source.

    Kind map (knobs beyond the shared ones; ``None`` picks the kind's
    value in brackets):

    - ``"scripted"`` — ``intents`` (list of prebuilt Transactions);
    - ``"poisson"`` — ``count``, ``read_fraction`` [0.6],
      ``burst_beats`` [(1, 4)] (an int or a tuple of candidate
      lengths), ``beat_bytes``, ``threads``, ``tags``, ``posted``;
    - ``"dependent"`` — ``count``, ``think_cycles``,
      ``read_fraction`` [0.8], ``beat_bytes``;
    - ``"stream"`` — ``base``, ``bytes_total``, ``burst_beats`` [8]
      (an int), ``beat_bytes``, ``write``, ``posted``, ``gap_cycles``;
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
    program: Optional[list] = None

    # ------------------------------------------------------------------ #
    def _burst_choices(self) -> Tuple[int, ...]:
        """The poisson kind's burst lengths; ``()`` for a malformed value."""
        beats = (1, 4) if self.burst_beats is None else self.burst_beats
        if isinstance(beats, int):
            return (beats,)
        return tuple(beats) if isinstance(beats, (tuple, list)) else ()

    def validate(self) -> "TrafficSpec":
        """Check every argument against its kind's :data:`TRAFFIC_ROWS`: a
        ``ValueError`` naming the spec and the knob (a missing seed a
        :class:`TrafficSeedError`)."""
        name = self.master if self.master is not None else f"<{self.kind}>"
        check(f"traffic spec {name!r}", self, TRAFFIC_ROWS.get(self.kind, UNKNOWN_KIND))
        return self

    # ------------------------------------------------------------------ #
    def build(self, name: Optional[str] = None):
        """Construct the concrete source this spec describes.  ``name``
        (the builder passes the initiator's) overrides ``master``; a kind
        that stamps a master name needs one of the two (:data:`UNNAMED_ROWS`)."""
        self.validate()
        if name is None:
            check(f"traffic spec '<{self.kind}>'", self, UNNAMED_ROWS)
        return _SOURCES[self.kind](self, self.master if name is None else name)


_RANDOM = (  # the poisson and dependent kinds draw from address windows
    knob("pairs", lambda s: bool(s.pairs), "at least one (base, size) range"),
    knob("read_fraction", lambda s: s.read_fraction is None
         or 0 <= s.read_fraction <= 1, "in [0, 1]"),
)
_BEAT_BYTES = knob("beat_bytes", lambda s: s.beat_bytes in BEAT_WIDTHS,
                   f"one of {BEAT_WIDTHS}")
_SEED = Check(
    "seed", ("seed",), lambda s: type(s.seed) is not bool and isinstance(s.seed, int),
    lambda s: f"seed must be an explicit int for reproducibility, got {s.seed!r} "
              f"(random.Random(None) would seed from OS entropy)", TrafficSeedError,
)

#: kind -> what a spec of that kind refuses, in order.
TRAFFIC_ROWS = {
    "scripted": (knob("intents", lambda s: s.intents is not None,
                      "a list of Transactions"),),
    "poisson": (
        *_RANDOM, _BEAT_BYTES,
        knob("rate", lambda s: 0.0 < s.rate <= 1.0, "in (0, 1]"),
        knob("threads", lambda s: s.threads >= 1, ">= 1"),
        knob("tags", lambda s: s.tags >= 1, ">= 1"),
        knob("burst_beats", lambda s: all(type(n) is int and n > 0
                                          for n in s._burst_choices() or [0]),
             "an int >= 1 or a non-empty tuple of them"),
        _SEED,
    ),
    "dependent": (*_RANDOM, _BEAT_BYTES, _SEED),
    "stream": (
        _BEAT_BYTES,
        knob("bytes_total", lambda s: s.bytes_total > 0, "> 0"),
        knob("burst_beats", lambda s: s.burst_beats is None
             or (type(s.burst_beats) is int and s.burst_beats >= 1), "an int >= 1"),
    ),
    "sync": (knob("style", lambda s: s.style in ("lock", "excl"), "'lock' or 'excl'"),),
    "dma": (knob("program", lambda s: bool(s.program), "a non-empty list"),),
}

#: What a spec of an unknown kind refuses.
UNKNOWN_KIND = (Check("kind", ("kind",), lambda s: s.kind in TRAFFIC_ROWS,
                      lambda s: f"unknown kind {s.kind!r}; known kinds: "
                                f"{TRAFFIC_KINDS}"),)

#: What :meth:`TrafficSpec.build` refuses when it gets no name.
UNNAMED_ROWS = (Check(
    "master", ("master", "kind"),
    lambda s: s.master is not None or s.kind == "scripted",
    lambda s: f"TrafficSpec(kind={s.kind!r}) needs a master name — set master=... "
              f"or put the spec on InitiatorSpec(traffic=...)",
),)


class ScriptedTraffic:
    """Issue a fixed list of intents in order, as fast as accepted.

    The intents are built before the SoC, so they carry no ids of their
    own: the master that polls the source stamps them, in order, when it
    is built (:class:`~repro.protocols.base.ProtocolMaster`).  It stamps
    the source's copies, so a spec's intents serve any number of builds."""

    def __init__(self, spec: TrafficSpec, name: Optional[str]) -> None:
        self.intents: List[Transaction] = [replace(txn) for txn in spec.intents]
        self._next = 0

    def poll(self, cycle: int) -> Optional[Transaction]:
        if self._next >= len(self.intents):
            return None
        txn = self.intents[self._next]
        self._next += 1
        return txn

    def lookahead(self, cycle: int):
        if self._next >= len(self.intents):
            return None  # exhausted: dormant forever
        return ("at", cycle)  # always ready while intents remain

    def done(self) -> bool:
        return self._next >= len(self.intents)

    def notify_complete(
        self, txn_id: int, cycle: int, status: ResponseStatus
    ) -> None:
        pass  # open loop: a completion changes nothing


class PoissonTraffic:
    """Open-loop random traffic with a Bernoulli-per-cycle injection rate.

    Each cycle a poll wants to inject with probability ``rate`` (the
    offered-load knob).  An intent targets a uniformly chosen
    ``(base, size)`` window of ``pairs``, is a read with probability
    ``read_fraction``, has a uniformly chosen length from
    ``burst_beats``, and spreads ``txn.thread`` / ``txn.txn_tag`` over
    ``threads`` / ``tags`` (protocol-dependent meaning: OCP ThreadID,
    AXI/AVCI ID).
    """

    COUNTERS = Counters("traffic", ("remaining",))

    def __init__(self, spec: TrafficSpec, name: str) -> None:
        self.name = name
        self.rng = random.Random(spec.seed)
        self.remaining = spec.count
        self.address_ranges = list(spec.pairs)
        self.rate = spec.rate
        self.read_fraction = (
            0.6 if spec.read_fraction is None else spec.read_fraction
        )
        self.burst_beats = spec._burst_choices()
        self.beat_bytes = spec.beat_bytes
        self.threads = spec.threads
        self.tags = spec.tags
        self.priority = spec.priority
        self.posted_writes = spec.posted
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
                txn_id=next(self.txn_ids),
            )
        else:
            data = [self.rng.randrange(1 << 32) for _ in range(beats)]
            txn = make_write(
                address,
                data,
                beat_bytes=self.beat_bytes,
                posted=self.posted_writes,
                master=self.name,
                txn_id=next(self.txn_ids),
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
        construction draws more randomness *and* the transaction id
        from the SoC's stream) is generated by the winning poll, at the
        same cycle and in the same cross-master order as a
        poll-every-cycle run.  The master must not call :meth:`poll`
        again until the returned number of polls have notionally
        elapsed (it converts the count to an absolute cycle; see
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
        pass  # open loop: a completion changes nothing


class DependentTraffic:
    """Closed-loop, CPU-like: the next intent issues ``think_cycles``
    after the previous one completes (dependent loads)."""

    COUNTERS = Counters("traffic", ("remaining",))

    def __init__(self, spec: TrafficSpec, name: str) -> None:
        self.name = name
        self.rng = random.Random(spec.seed)
        self.remaining = spec.count
        self.address_ranges = list(spec.pairs)
        self.think_cycles = spec.think_cycles
        self.read_fraction = (
            0.8 if spec.read_fraction is None else spec.read_fraction
        )
        self.beat_bytes = spec.beat_bytes
        self.priority = spec.priority
        self._ready_at = 0
        self._waiting = False

    def poll(self, cycle: int) -> Optional[Transaction]:
        if self.remaining <= 0 or self._waiting or cycle < self._ready_at:
            return None
        base, size = self.rng.choice(self.address_ranges)
        beat_bytes = self.beat_bytes
        address = base + self.rng.randrange(max(1, size // beat_bytes)) * beat_bytes
        if self.rng.random() < self.read_fraction:
            txn = make_read(
                address, beat_bytes=beat_bytes, master=self.name,
                txn_id=next(self.txn_ids),
            )
        else:
            txn = make_write(
                address,
                [self.rng.randrange(1 << 32)],
                beat_bytes=beat_bytes,
                master=self.name,
                txn_id=next(self.txn_ids),
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


class StreamTraffic:
    """DMA-like: back-to-back long INCR bursts sweeping a region."""

    COUNTERS = Counters("traffic", ("bursts_remaining",))

    def __init__(self, spec: TrafficSpec, name: str) -> None:
        self.name = name
        self.base = spec.base
        self.burst_beats = 8 if spec.burst_beats is None else spec.burst_beats
        self.beat_bytes = spec.beat_bytes
        self.write = spec.write
        self.posted = spec.posted
        self.priority = spec.priority
        self.gap_cycles = spec.gap_cycles
        burst_bytes = self.burst_beats * self.beat_bytes
        self.bursts_remaining = max(1, spec.bytes_total // burst_bytes)
        self._cursor = spec.base
        self._ready_at = 0

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
                txn_id=next(self.txn_ids),
            )
        else:
            txn = make_read(
                self._cursor,
                beats=self.burst_beats,
                beat_bytes=self.beat_bytes,
                master=self.name,
                txn_id=next(self.txn_ids),
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
        pass  # open loop: a completion changes nothing


class SyncWorkload:
    """Critical-section loop in either synchronization style (E3).

    ``style="lock"`` (legacy blocking, AHB/VCI): READEX the semaphore
    (locks the path and target), do the critical-section work, release
    with STORE_COND_LOCKED.

    ``style="excl"`` (non-blocking, AXI/OCP): exclusive-load the
    semaphore, exclusive-store it; on a lost reservation retry.  Critical
    section work runs only after a successful exclusive store, and the
    semaphore is freed with a plain store.
    """

    COUNTERS = Counters(
        "traffic", ("iterations_left", "retries", "sections_completed")
    )

    def __init__(self, spec: TrafficSpec, name: str) -> None:
        self.name = name
        self.style = spec.style
        self.sema_addr = spec.sema_addr
        self.work_addr = spec.work_addr
        self.iterations_left = spec.iterations
        self.work_ops = spec.work_ops
        self._state = "idle"
        self._work_left = 0
        self._inflight_id: Optional[int] = None
        self.retries = 0
        self.sections_completed = 0

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
        txn.txn_id = self._inflight_id = next(self.txn_ids)
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


def _dma_engine(spec: TrafficSpec, name: str):
    # The engine lives in the workloads subsystem; imported lazily so
    # repro.ip has no import-time dependency on it.
    from repro.workloads.dma import DmaEngine

    return DmaEngine(name, spec.program, priority=spec.priority)


#: kind -> the source class (or factory) TrafficSpec.build constructs.
_SOURCES = {
    "scripted": ScriptedTraffic,
    "poisson": PoissonTraffic,
    "dependent": DependentTraffic,
    "stream": StreamTraffic,
    "sync": SyncWorkload,
    "dma": _dma_engine,
}

#: Source kinds TrafficSpec can describe.
TRAFFIC_KINDS = tuple(_SOURCES)
