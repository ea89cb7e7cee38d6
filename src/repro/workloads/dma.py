"""Programmable DMA endpoints: descriptor programs as traffic sources.

A :class:`DmaEngine` is a :class:`~repro.protocols.base.TrafficSource`
that executes a small *descriptor program*: read bursts, write bursts and
compute delays, linked by intra-program dependencies (``after``) and by
cross-engine :class:`~repro.workloads.channels.StreamChannel` tokens
(``wait``/``signal``).  ``TrafficSpec(kind="dma", program=...)`` builds
it.  The protocol master that polls the engine supplies all kernel
integration — the engine only has to answer the standard
``poll``/``lookahead``/``done`` questions, plus one extra hook
(``bind_master``), which binds the program's channel declarations to its
SoC's token logs so channel tokens can wake a parked master.

The engine is deliberately *not* a kernel component: like every other
traffic source it is event-deterministic — identical across the strict
and activity kernels and across checkpoint/restore (a checkpoint
carries every engine's attributes, the token logs it shares with peer
engines included).

``compute`` descriptors model the endpoint's local work: the descriptor
completes ``delay`` cycles after its last dependency completes, without
touching the fabric.  Completion is stamped at that due cycle regardless
of when the master's next poll observes it, so the stamp is independent
of kernel scheduling; the signal token (if any) fires at the observing
poll and becomes visible a cycle later, exactly like a completed burst.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

from repro.core.transaction import ResponseStatus, Transaction, make_read, make_write
from repro.sim.stats import Counters
from repro.workloads.channels import StreamChannel, TokenLog

__all__ = ["DmaDescriptor", "DmaEngine", "DmaProgramError"]

_OPS = ("read", "write", "compute")


def _channels_tuple(value) -> Tuple[StreamChannel, ...]:
    """Normalize the wait=/signal= argument: None, one channel, or an
    iterable of channels — always stored as a tuple."""
    if value is None:
        return ()
    if isinstance(value, StreamChannel):
        return (value,)
    return tuple(value)


class DmaProgramError(ValueError):
    """A descriptor program is structurally invalid (unknown op, a
    dependency on a later descriptor, a wait on a compute step...)."""


class DmaDescriptor:
    """One step of a DMA program.

    Parameters
    ----------
    op:
        ``"read"`` / ``"write"`` — a fabric burst (repeated ``bursts``
        times); ``"compute"`` — a local delay of ``delay`` cycles.
    address / beats / beat_bytes / bursts / stride:
        Burst ``b`` targets ``address + b * stride`` (``stride`` defaults
        to the burst footprint, i.e. a contiguous sweep).  With ``ring``
        set, ``b`` wraps modulo ``ring`` — a circular buffer.
    after:
        Indices of *earlier* descriptors in the same program that must
        fully complete before any burst of this one may issue.
    wait / signal:
        Stream channel declarations — one or a tuple of them.  Burst
        ``b`` may issue only once *every* wait channel holds ``b + 1``
        visible tokens; each completed burst puts one token on every
        signal channel (a compute puts one on completion).  A pipeline
        stage therefore waits on (upstream data, downstream credit) and
        signals (upstream credit, downstream data) with one descriptor
        pair.
    priority:
        Per-descriptor priority; ``None`` inherits the engine's.
    pattern:
        Base value for generated write data (deterministic, so memory
        images stay fingerprintable).
    """

    __slots__ = (
        "op",
        "address",
        "beats",
        "beat_bytes",
        "bursts",
        "stride",
        "ring",
        "delay",
        "after",
        "wait",
        "signal",
        "priority",
        "posted",
        "pattern",
    )

    def __init__(
        self,
        op: str,
        *,
        address: int = 0,
        beats: int = 8,
        beat_bytes: int = 4,
        bursts: int = 1,
        stride: Optional[int] = None,
        ring: Optional[int] = None,
        delay: int = 0,
        after: Tuple[int, ...] = (),
        wait: Optional[StreamChannel] = None,
        signal: Optional[StreamChannel] = None,
        priority: Optional[int] = None,
        posted: bool = False,
        pattern: int = 0,
    ) -> None:
        self.op = op
        self.address = address
        self.beats = beats
        self.beat_bytes = beat_bytes
        self.bursts = bursts
        self.stride = beats * beat_bytes if stride is None else stride
        self.ring = ring
        self.delay = delay
        self.after = tuple(after)
        self.wait = _channels_tuple(wait)
        self.signal = _channels_tuple(signal)
        self.priority = priority
        self.posted = posted
        self.pattern = pattern

    def describe(self) -> str:
        if self.op == "compute":
            return f"compute(delay={self.delay})"
        return (
            f"{self.op}(addr={self.address:#x}, beats={self.beats}, "
            f"bursts={self.bursts})"
        )


class DmaEngine:
    """Execute a descriptor program through the polling protocol master.

    The first error completion (DECERR/SLVERR) freezes the program:
    ``done()`` stays false forever, so the run times out and
    :class:`~repro.ip.traffic.WorkloadStallError` surfaces this engine's
    :meth:`diagnose_stall` — a DMA program targeting an unmapped address
    fails loudly, by name.

    Deterministic progress
    ----------------------
    ``poll`` / ``_advance`` / ``lookahead`` / ``done`` visit a *ready
    frontier*, never the whole program.  ``_blocked[i]`` counts the
    distinct ``after`` dependencies of descriptor ``i`` still incomplete;
    three ascending index lists hold what can act:

    ``_open_computes``
        computes with no blocked dependency whose due cycle has not been
        observed; ``_advance`` removes each as it stamps it.
    ``_open_bursts``
        read/write descriptors with no blocked dependency and bursts left
        to issue; ``poll`` removes each with its last burst.
    ``_waiting``
        descriptors with ``wait`` channels and bursts left to issue,
        *whatever their dependencies* — ``lookahead`` parks on their token
        visibility even while ``after`` is pending (an early poll is
        harmless).  Filled at build, emptied by ``poll``.

    ``_finish`` — a descriptor completing, via ``notify_complete`` or a
    due compute — is the only inserter: it decrements each dependent's
    count and ``insort``s those that reach zero.  Dependencies point
    backwards, so whatever a compute releases has a larger index and
    lands behind ``_advance``'s cursor: one ascending pass stamps the
    same computes in the same order as rescanning to a fixed point, and
    the first token-ready entry of ``_open_bursts`` is the lowest
    eligible index.  All of it is set at build, where nothing is
    complete and nothing issued, and a checkpoint carries it as it
    stands.
    """

    COUNTERS = Counters("traffic", ("bursts_completed",))

    def __init__(
        self,
        name: str,
        program: List[DmaDescriptor],
        *,
        priority: int = 0,
    ) -> None:
        self.name = name
        self.program: List[DmaDescriptor] = list(program)
        self.priority = priority
        self._validate_program()
        n = len(self.program)
        self._issued = [0] * n  # bursts handed to the master
        self._done_bursts = [0] * n  # bursts completed
        self._complete_cycle: List[Optional[int]] = [None] * n
        self._compute_done: List[Optional[int]] = [None] * n  # due cycles
        self._txn_desc: Dict[int, int] = {}  # txn_id -> descriptor index
        self._halted: Optional[str] = None
        self.bursts_completed = 0
        self._wait = self._signal = []  # each descriptor's logs: bind_master
        # The ready frontier at build: nothing complete, nothing issued.
        blocked = self._blocked = list(map(len, self._after))
        self._open_computes: List[int] = []
        self._open_bursts: List[int] = []
        self._waiting: List[int] = []
        self._remaining = n
        for i, desc in enumerate(self.program):
            if not blocked[i]:
                if desc.op == "compute":
                    self._open_computes.append(i)
                else:
                    self._open_bursts.append(i)
            if desc.wait:
                self._waiting.append(i)

    def _validate_program(self) -> None:
        if not self.program:
            raise DmaProgramError(f"{self.name}: empty descriptor program")
        # Per-engine tables (descriptors may be shared, never mutated):
        # ``after`` deduplicated — an edge counts once — and its reverse.
        self._after: List[Tuple[int, ...]] = []
        self._dependents: List[List[int]] = [[] for _ in self.program]
        for i, desc in enumerate(self.program):
            label = f"{self.name}: descriptor {i}"
            if not isinstance(desc, DmaDescriptor):
                raise DmaProgramError(f"{label} is not a DmaDescriptor")
            if desc.op not in _OPS:
                raise DmaProgramError(
                    f"{label}: unknown op {desc.op!r}; known ops: {_OPS}"
                )
            for j in desc.after:
                if not isinstance(j, int) or not 0 <= j < i:
                    raise DmaProgramError(
                        f"{label}: after={desc.after} may only reference "
                        f"earlier descriptors (0..{i - 1}) — programs are "
                        f"DAGs by construction"
                    )
            after = desc.after
            if len(after) > 1:
                after = tuple(sorted(set(after)))
            self._after.append(after)
            for j in after:
                self._dependents[j].append(i)
            if desc.op == "compute":
                if desc.delay < 0:
                    raise DmaProgramError(f"{label}: delay must be >= 0")
                if desc.wait:
                    raise DmaProgramError(
                        f"{label}: compute steps cannot wait on a channel "
                        f"(sequence them with after=)"
                    )
                if desc.bursts != 1:
                    raise DmaProgramError(
                        f"{label}: compute steps have exactly one burst"
                    )
            else:
                if desc.bursts < 1 or desc.beats < 1 or desc.beat_bytes < 1:
                    raise DmaProgramError(
                        f"{label}: bursts, beats and beat_bytes must be >= 1"
                    )
                if desc.ring is not None and desc.ring < 1:
                    raise DmaProgramError(f"{label}: ring must be >= 1")

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def bind_master(self, master, channels: Dict[str, TokenLog]) -> None:
        """Called by the owning master's ``bind()`` with its SoC's token
        logs by channel name: resolve every declared channel to its log
        (the first engine that names a channel makes it) and register
        ``master`` as the wake target of every log this program waits on."""

        def resolve(declared: Tuple[StreamChannel, ...]) -> Tuple[TokenLog, ...]:
            return tuple(channels.setdefault(channel.name, TokenLog(channel))
                         for channel in declared)

        program = self.program
        self._wait = [resolve(desc.wait) if desc.wait else () for desc in program]
        self._signal = [resolve(desc.signal) if desc.signal else () for desc in program]
        for logs in self._wait:
            for log in logs:
                log.add_waiter(master)

    # ------------------------------------------------------------------ #
    # deterministic progress: the ready frontier
    # ------------------------------------------------------------------ #
    def _finish(self, i: int, cycle: int) -> None:
        """Descriptor ``i`` completed at ``cycle`` — the only place that
        releases dependents into the open sets."""
        self._complete_cycle[i] = cycle
        self._remaining -= 1
        blocked = self._blocked
        for k in self._dependents[i]:
            blocked[k] -= 1
            if not blocked[k]:
                if self.program[k].op == "compute":
                    insort(self._open_computes, k)
                else:
                    insort(self._open_bursts, k)

    def _compute_due_at(self, i: int) -> int:
        """Pure: the cycle open compute ``i`` completes."""
        due = self._compute_done[i]
        if due is not None:
            return due
        cc = self._complete_cycle
        start = max((cc[j] for j in self._after[i]), default=0)
        return start + self.program[i].delay

    def _advance(self, cycle: int) -> None:
        """Stamp every compute completion due by ``cycle`` and fire its
        signal.  Only poll/notify paths call this (never lookahead), so
        the stamps land at the same events on every kernel."""
        open_computes = self._open_computes
        k = 0
        while k < len(open_computes):
            i = open_computes[k]
            due = self._compute_done[i] = self._compute_due_at(i)
            if cycle < due:
                k += 1
                continue
            # Completion time is the due cycle itself — not the observing
            # poll's cycle — so it is scheduling-free.  What this releases
            # lands at or behind slot ``k``: same pass.
            del open_computes[k]
            self._finish(i, due)
            for log in self._signal[i]:
                log.put(cycle)

    def _tokens_visible(self, i: int, cycle: int) -> bool:
        """Every wait channel of open burst ``i`` shows its next token."""
        need = self._issued[i] + 1
        return all(log.level(cycle) >= need for log in self._wait[i])

    def _make_txn(self, i: int, burst: int) -> Transaction:
        desc = self.program[i]
        slot = burst % desc.ring if desc.ring is not None else burst
        address = desc.address + slot * desc.stride
        if desc.op == "read":
            txn = make_read(
                address,
                beats=desc.beats,
                beat_bytes=desc.beat_bytes,
                master=self.name,
                txn_id=next(self.txn_ids),
            )
        else:
            data = [
                (desc.pattern + burst * desc.beats + k) & 0xFFFFFFFF
                for k in range(desc.beats)
            ]
            txn = make_write(
                address,
                data,
                beat_bytes=desc.beat_bytes,
                posted=desc.posted,
                master=self.name,
                txn_id=next(self.txn_ids),
            )
        txn.priority = (
            self.priority if desc.priority is None else desc.priority
        )
        return txn

    # ------------------------------------------------------------------ #
    # TrafficSource protocol
    # ------------------------------------------------------------------ #
    def poll(self, cycle: int) -> Optional[Transaction]:
        self._advance(cycle)
        if self._halted is not None:
            return None
        open_bursts = self._open_bursts
        for k, i in enumerate(open_bursts):  # lowest index first
            if self._tokens_visible(i, cycle):
                desc = self.program[i]
                burst = self._issued[i]
                txn = self._make_txn(i, burst)
                self._issued[i] += 1
                if burst + 1 == desc.bursts:  # last burst: leaves the frontier
                    del open_bursts[k]
                    if desc.wait:
                        self._waiting.remove(i)
                self._txn_desc[txn.txn_id] = i
                return txn
        return None

    def lookahead(self, cycle: int):
        """Pure — no state is touched, so skipped polls are free."""
        if self._halted is not None:
            return None  # halted forever: nothing will ever re-arm us
        horizon: Optional[int] = None
        for i in self._open_computes:
            due = self._compute_due_at(i)
            if due <= cycle:
                return ("at", cycle)  # poll must stamp + signal it
            horizon = due if horizon is None else min(horizon, due)
        for i in self._open_bursts:
            if self._tokens_visible(i, cycle):
                return ("at", cycle)
        for i in self._waiting:
            # Enough tokens already put on every wait channel but not
            # all visible yet: park until the latest needed token's
            # visibility cycle.  (Deps may still be pending then — an
            # early poll is harmless.)  A channel still short of
            # tokens wakes us via its put() instead.
            need = self._issued[i] + 1
            wait = self._wait[i]
            if all(log.total() >= need for log in wait):
                at = max([cycle] + [log.visible_at(need) for log in wait])
                horizon = at if horizon is None else min(horizon, at)
        if horizon is not None:
            return ("at", horizon)
        # Dormant: only a completion (response-channel wake) or a channel
        # token (bind_master waiter wake) can make a future poll succeed.
        return None

    def done(self) -> bool:
        return self._halted is None and not (self._txn_desc or self._remaining)

    def notify_complete(
        self, txn_id: int, cycle: int, status: ResponseStatus
    ) -> None:
        i = self._txn_desc.pop(txn_id, None)
        if i is None:
            raise AssertionError(
                f"{self.name}: completion for unknown txn {txn_id}"
            )
        desc = self.program[i]
        if status.is_error:
            self._halted = (
                f"descriptor {i} {desc.describe()} completed with "
                f"{status.name} at cycle {cycle}"
            )
            return
        self._done_bursts[i] += 1
        self.bursts_completed += 1
        for log in self._signal[i]:
            log.put(cycle)
        if (
            self._done_bursts[i] == desc.bursts
            and self._issued[i] == desc.bursts
        ):
            self._finish(i, cycle)
            self._advance(cycle)  # a finished dep may release computes

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def diagnose_stall(self) -> Optional[str]:
        """One line per stuck reason; None when nothing is stuck."""
        if self._halted is not None:
            return f"{self.name}: halted — {self._halted}"
        if self.done():
            return None
        reasons = []
        for i, desc in enumerate(self.program):
            if self._complete_cycle[i] is not None:
                continue
            if desc.op == "compute":
                if self._blocked[i]:
                    reasons.append(
                        f"desc {i} {desc.describe()} waiting on "
                        f"after={desc.after}"
                    )
                continue
            inflight = self._issued[i] - self._done_bursts[i]
            if inflight:
                reasons.append(
                    f"desc {i} {desc.describe()}: {inflight} burst(s) "
                    f"in flight"
                )
            elif self._blocked[i]:
                reasons.append(
                    f"desc {i} {desc.describe()} waiting on "
                    f"after={desc.after}"
                )
            elif desc.wait:
                need = self._issued[i] + 1
                starved = [
                    f"{log.name!r} holds {log.total()}"
                    for log in self._wait[i]
                    if log.total() < need
                ]
                reasons.append(
                    f"desc {i} {desc.describe()} starved: burst "
                    f"{self._issued[i]} needs {need} token(s) but "
                    f"{'; '.join(starved) or 'tokens are pending'}"
                )
        if not reasons:
            reasons.append("unfinished (no further diagnosis)")
        return f"{self.name}: " + "; ".join(reasons)
