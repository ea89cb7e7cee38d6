"""Programmable DMA endpoints: descriptor programs as traffic sources.

A :class:`DmaEngine` is a :class:`~repro.protocols.base.TrafficSource`
that executes a small *descriptor program*: read bursts, write bursts and
compute delays, linked by intra-program dependencies (``after``) and by
cross-engine :class:`~repro.workloads.channels.StreamChannel` tokens
(``wait``/``signal``).  The protocol master that polls the engine
supplies all kernel integration — the engine only has to answer the
standard ``poll``/``lookahead``/``done`` questions, plus one extra hook
(``bind_master``) so channel tokens can wake a parked master.

The engine is deliberately *not* a kernel component: like every other
traffic source it is event-deterministic — identical across the strict
and activity kernels and across checkpoint/restore (it implements the
:class:`~repro.sim.snapshot.Snapshottable` contract, including the
channel token logs it shares with peer engines).

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
from repro.sim.snapshot import Snapshottable
from repro.workloads.channels import StreamChannel

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
        Stream channels — a single channel or a tuple of them.  Burst
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


class DmaEngine(Snapshottable):
    """Execute a descriptor program through the polling protocol master.

    ``on_error="halt"`` (default) freezes the program on the first error
    completion (DECERR/SLVERR): ``done()`` stays false forever, so the
    run times out and :class:`~repro.ip.traffic.WorkloadStallError`
    surfaces this engine's :meth:`diagnose_stall` — a DMA program
    targeting an unmapped address fails loudly, by name.
    ``on_error="continue"`` counts the burst as done and carries on.

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
    eligible index.  All of it is derived from ``_complete_cycle`` and
    ``_issued``, so ``_rebuild_frontier`` recomputes it after a restore
    and the checkpoint format never sees it.
    """

    _snapshot_fields = (
        "_issued",
        "_done_bursts",
        "_complete_cycle",
        "_compute_done",
        "_signals_fired",
        "_txn_desc",
        "_halted",
        "bursts_completed",
        "issue_log",
        "complete_log",
        "completions",
    )

    def __init__(
        self,
        name: str,
        program: List[DmaDescriptor],
        *,
        priority: int = 0,
        on_error: str = "halt",
    ) -> None:
        if on_error not in ("halt", "continue"):
            raise ValueError("on_error must be 'halt' or 'continue'")
        self.name = name
        self.program: List[DmaDescriptor] = list(program)
        self.priority = priority
        self.on_error = on_error
        self._validate_program()
        n = len(self.program)
        self._issued = [0] * n  # bursts handed to the master
        self._done_bursts = [0] * n  # bursts completed
        self._complete_cycle: List[Optional[int]] = [None] * n
        self._compute_done: List[Optional[int]] = [None] * n  # due cycles
        self._signals_fired = [0] * n
        self._txn_desc: Dict[int, int] = {}  # txn_id -> descriptor index
        self._halted: Optional[str] = None
        self.bursts_completed = 0
        self.issue_log: List[Tuple[int, int, int]] = []  # (desc, burst, cycle)
        self.complete_log: List[Tuple[int, int, int]] = []
        self.completions: List[Tuple[int, int, ResponseStatus]] = []
        self._master = None  # set by bind_master (wiring, not state)
        self._rebuild_frontier()
        # Channels this program touches, by name — the snapshot captures
        # their token logs through every engine that references them
        # (idempotent: all captures happen at the same instant).
        self._channels: Dict[str, StreamChannel] = {}
        for desc in self.program:
            for channel in desc.wait + desc.signal:
                known = self._channels.get(channel.name)
                if known is not None and known is not channel:
                    raise DmaProgramError(
                        f"{name}: two distinct channels named "
                        f"{channel.name!r} in one program"
                    )
                self._channels[channel.name] = channel

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
    def bind_master(self, master) -> None:
        """Called by the owning master's ``bind()``: register it as the
        wake target of every channel this program waits on."""
        self._master = master
        for desc in self.program:
            for channel in desc.wait:
                channel.add_waiter(master)

    # ------------------------------------------------------------------ #
    # deterministic progress: the ready frontier
    # ------------------------------------------------------------------ #
    def _rebuild_frontier(self) -> None:
        """Derive the frontier from ``_complete_cycle`` / ``_issued`` (at
        construction and after every restore)."""
        cc, issued = self._complete_cycle, self._issued
        blocked = self._blocked = list(map(len, self._after))
        self._open_computes: List[int] = []
        self._open_bursts: List[int] = []
        self._waiting: List[int] = []
        self._remaining = cc.count(None)
        for i, desc in enumerate(self.program):
            if cc[i] is not None:
                for k in self._dependents[i]:  # k > i: settled before visited
                    blocked[k] -= 1
            elif desc.op == "compute":
                if not blocked[i]:
                    self._open_computes.append(i)
            elif issued[i] < desc.bursts:
                if not blocked[i]:
                    self._open_bursts.append(i)
                if desc.wait:
                    self._waiting.append(i)

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
            self.complete_log.append((i, 0, due))
            for channel in self.program[i].signal:
                channel.put(cycle)
                self._signals_fired[i] += 1

    def _tokens_visible(self, i: int, cycle: int) -> bool:
        """Every wait channel of open burst ``i`` shows its next token."""
        need = self._issued[i] + 1
        return all(ch.level(cycle) >= need for ch in self.program[i].wait)

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
                self.issue_log.append((i, burst, cycle))
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
            wait = self.program[i].wait
            if all(ch.total() >= need for ch in wait):
                at = max([cycle] + [ch.visible_at(need) for ch in wait])
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
        self.completions.append((txn_id, cycle, status))
        i = self._txn_desc.pop(txn_id, None)
        if i is None:
            raise AssertionError(
                f"{self.name}: completion for unknown txn {txn_id}"
            )
        desc = self.program[i]
        if status.is_error and self.on_error == "halt":
            self._halted = (
                f"descriptor {i} {desc.describe()} completed with "
                f"{status.name} at cycle {cycle}"
            )
            return
        self._done_bursts[i] += 1
        self.bursts_completed += 1
        self.complete_log.append((i, self._done_bursts[i] - 1, cycle))
        for channel in desc.signal:
            channel.put(cycle)
            self._signals_fired[i] += 1
        if (
            self._done_bursts[i] == desc.bursts
            and self._issued[i] == desc.bursts
        ):
            self._finish(i, cycle)
            self._advance(cycle)  # a finished dep may release computes

    # ------------------------------------------------------------------ #
    # diagnostics + snapshot
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
                    f"{ch.name!r} holds {ch.total()}"
                    for ch in desc.wait
                    if ch.total() < need
                ]
                reasons.append(
                    f"desc {i} {desc.describe()} starved: burst "
                    f"{self._issued[i]} needs {need} token(s) but "
                    f"{'; '.join(starved) or 'tokens are pending'}"
                )
        if not reasons:
            reasons.append("unfinished (no further diagnosis)")
        return f"{self.name}: " + "; ".join(reasons)

    def _snapshot_state(self) -> dict:
        state = super()._snapshot_state()
        state["channels"] = {
            name: list(ch._puts) for name, ch in self._channels.items()
        }
        return state

    def _restore_state(self, state) -> None:
        super()._restore_state(state)
        for name, puts in state["channels"].items():
            self._channels[name]._puts[:] = puts
        self._rebuild_frontier()  # derived state: never snapshotted
