"""Cycle-level NoC switch (router) model.

The router is deliberately *transaction-unaware*: per the paper, it reads
only the head-flit routing fields (destination, source, priority, the
LOCK marker) and moves opaque flits.  Micro-architecture:

- one FIFO buffer per input port **per virtual channel** (upstream
  routers / injection ports push into it — the staged queue gives one
  cycle per hop).  Ports are wired by
  :class:`~repro.transport.network.Network` through link objects: on an
  ideal same-domain link the output queue *is* the downstream router's
  input buffer, while a serialized/piped/CDC link interposes a
  :class:`~repro.phys.link.PhysicalLink` (or, with several VCs, a
  :class:`~repro.phys.link.VcPhysicalLink` that time-multiplexes the VCs
  over one physical channel) whose feed queues the router sees as its
  outputs — backpressure and switching-mode gates then apply to the
  link's staging buffers, which is exactly the wire-side FIFO a narrow
  link would have in hardware;
- a **VC-allocation stage** ahead of switch allocation (``vcs >= 2``): a
  head flit at the front of an input VC first acquires a free output VC
  (chosen by the plane's :class:`~repro.transport.routing.VcPolicy`) and
  holds it until its tail passes — each output VC carries one packet at
  a time, so per-VC streams never interleave;
- per-output arbitration each cycle (policy pluggable, see
  :mod:`repro.transport.qos`); one flit per *physical* output per cycle,
  with one candidate per (input port, VC) — flits of different packets
  interleave on the physical channel, which is what defeats
  head-of-line blocking;
- wormhole allocation: once a head flit wins an output VC, that VC is
  owned by the input VC until the tail flit passes.  With ``vcs == 1``
  (the default) this degenerates to the classic single-buffer wormhole
  switch, cycle-identical to the pre-VC fabric;
- switching-mode gate on head departure (wormhole / store-and-forward /
  virtual cut-through, see :mod:`repro.transport.switching`);
- **LOCK handling** — the one transaction-family leak the paper concedes:
  after a ``READEX`` request's tail passes an output port, the port
  admits only packets from the locking master until that master's
  ``STORE_COND_LOCKED`` tail passes.  That pair is the whole lock
  family: every socket's locked transfer reaches the fabric as one or
  the other.  Locks are per physical output port (they model a locked
  path, not a buffer).

**Two switches, one skeleton.**  Both ticks scan for busy inputs, try
the solo branch (below) inline, and otherwise run three phases, each
called once per tick.  Only the first phase differs, because only the
allocation order does:

- **Phase A** (single-VC, :meth:`Router._route_heads`) routes each
  fresh head and checks its output is free, ready under the switching
  mode and not locked against it; the output is claimed by the head's
  own transfer in Phase B.  A streaming input simply asks to continue.
- **Phase V** (VC, :meth:`Router._allocate_vcs`) first allocates the
  output VC (:meth:`Router._allocate_vc`: table or adaptive route, lock
  admission, claim), then applies the switching gate.
- **Phase B** (:meth:`Router._switch`): per physical output in canonical
  order, a lone contender is a recorded sole grant, several go to
  ``arbiter.pick``; one flit per output and per input port.
- **Phase C** (:meth:`Router._age`): inputs that sent reset their age,
  the rest age by one.

**One record per port and VC.**  Each input VC, output VC and physical
output port is one slotted record, made where it is wired, holding what
a tick reads and mutates; ``inputs`` / ``outputs`` are only the
``(port, vc) -> queue`` wiring view.

The steps inside the phases are written once: the SAF/VCT head gate
(:meth:`Router._head_may_depart`) and the move itself
(:meth:`Router._transfer`).  A tick counts one lock-stall cycle however
many heads a lock refused, on however many outputs.

**The solo rule.**  Arbitration needs two requesters.  When the busy
scan finds exactly one input (VC) holding flits — most loaded ticks —
that input moves its front flit or ages by one, inline at the top of
the tick: no ``wants`` map, no walk over the outputs.  A fresh head
passes the same checks as in Phase A (on the VC switch,
``_allocate_vc`` runs unchanged) and its grant is recorded with
:meth:`Arbiter.note_sole_grant` exactly where Phase B records one.  The
gate, per tick: one busy input, ``stream_fast_path`` set, and wormhole
switching (under SAF/VCT, departure depends on the buffered packet).
Every arbiter's lone ``pick`` only records a grant, which is what
:meth:`Arbiter.note_sole_grant` does.  Everything else runs the phases,
which are also the reference: tests assign ``stream_fast_path = False``
after construction to run them on every tick and compare the two, cycle
for cycle.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.packet import PacketKind
from repro.core.transaction import Opcode
from repro.sim.component import Component
from repro.sim.queue import SimQueue
from repro.sim.stats import Counters
from repro.transport.flit import Flit
from repro.transport.qos import Arbiter, Candidate, PriorityArbiter
from repro.transport.routing import AdaptiveRoutingTable, VcPolicy
from repro.transport.switching import SwitchingMode
from repro.transport.topology import router_sort_key

_LOCK_SETTERS = (Opcode.READEX,)
_LOCK_CLEARERS = (Opcode.STORE_COND_LOCKED,)

#: Key of one input (or output) virtual channel: ``(port name, vc)``.
VcKey = Tuple[str, int]

_ORDER = attrgetter("order")


@dataclass(slots=True, eq=False)
class _InputVc:
    """One input VC: its buffer, canonical order key and arbitration id
    (with one VC the port name, otherwise ``"port@vc<N>"``), the
    upstream router the VC policy reads (None: an endpoint port), and
    the state a tick mutates."""

    port: str
    vc: int
    queue: SimQueue
    order: tuple
    ckey: str
    neighbor: Optional[Hashable]
    #: The output VC this input's packet holds until its tail passes,
    #: and that packet's head flit.
    alloc: Optional[_OutputVc] = None
    head: Optional[Flit] = None
    #: Cycles waited with flits buffered (arbitration reads it).
    age: int = 0
    #: ``(release version, head)`` of a failed adaptive allocation: the
    #: head stays blocked until an output VC is released or a lock moves.
    fail: Optional[Tuple[int, Flit]] = None
    #: Output port -> the output VC the (stateless) VC policy chose for a
    #: head leaving by it; the escape VC on an adaptive router.
    out_vcs: Dict[_OutputPort, _OutputVc] = field(default_factory=dict)


@dataclass(slots=True, eq=False)
class _OutputVc:
    """One output VC: its physical port, its queue and the input VC that
    owns it until the owning packet's tail passes."""

    port: _OutputPort
    vc: int
    queue: SimQueue
    owner: Optional[_InputVc] = None


@dataclass(slots=True, eq=False)
class _OutputPort:
    """One physical output: its canonical order key, the downstream
    router (None: an ejection port), its output VCs by index (``vcs[0]``
    is the single-VC switch's) and the master whose lock it holds."""

    name: str
    order: tuple
    neighbor: Optional[Hashable]
    vcs: List[Optional[_OutputVc]]
    lock: Optional[int] = None


class Router(Component):
    """One switch.  Wiring is done by :class:`~repro.transport.network.Network`."""

    COUNTERS = Counters("routers", (
        "flits_forwarded", "packets_forwarded", "lock_stall_cycles",
        "packets_adaptive", "packets_escape"))

    #: Body-flit streaming fast path: once a head holds its output VC and
    #: an output is uncontested, later flits bypass candidate
    #: construction and the arbiter call (the grant is still recorded —
    #: see Arbiter.note_sole_grant), and a tick with one busy input takes
    #: the solo branch (module docstring).  Tests assign False on an
    #: instance to run the reference arbitration for every flit and pin
    #: that both produce the same flit interleaving, cycle for cycle.
    stream_fast_path = True

    def __init__(
        self,
        name: str,
        router_id: Hashable,
        table: Dict[int, str],
        mode: SwitchingMode = SwitchingMode.WORMHOLE,
        arbiter: Optional[Arbiter] = None,
        lock_support: bool = True,
        vcs: int = 1,
        vc_policy: Optional[VcPolicy] = None,
        adaptive_table: Optional[AdaptiveRoutingTable] = None,
    ) -> None:
        super().__init__(name)
        self.router_id = router_id
        self.table = table
        self.mode = mode
        self.arbiter = arbiter if arbiter is not None else PriorityArbiter()
        self.lock_support = lock_support
        self.vcs = vcs
        self.vc_policy = vc_policy if vc_policy is not None else VcPolicy()
        # Minimal-adaptive mode: route choice becomes a per-cycle
        # multi-candidate allocation decision (see _allocate_adaptive);
        # ``table`` then holds the escape (deterministic) next hops, and
        # the VC policy is an EscapeVcPolicy (Network._check_options):
        # VCs below the escape base are the adaptive class.
        self.adaptive_table = adaptive_table
        if adaptive_table is not None:
            self._escape_base = self.vc_policy.escape_base(vcs)
        # Bumped whenever an output VC is released or a lock moves: an
        # input's failed adaptive scan (``_InputVc.fail``) holds until then.
        self._release_version = 0
        # The wiring views, keyed (port, vc); vc is always 0 when vcs == 1.
        self.inputs: Dict[VcKey, SimQueue] = {}
        self.outputs: Dict[VcKey, SimQueue] = {}
        # The records, kept in canonical order as ports are wired so tick
        # never sorts (arbitration order is the (port, vc) order key).
        self._sorted_inputs: List[_InputVc] = []
        self._physical_outputs: List[_OutputPort] = []
        self._ports: Dict[str, _OutputPort] = {}
        self.flits_forwarded = 0
        self.packets_forwarded = 0
        #: Packets granted an adaptive-class vs escape-class output VC at
        #: this router (adaptive routing only; ejection counts as neither).
        self.packets_adaptive = 0
        self.packets_escape = 0
        #: Cycles in which at least one output was lock-stalled (counted
        #: at most once per cycle).
        self.lock_stall_cycles = 0
        #: Set by VC allocation when a lock refuses a head; the tick that
        #: allocated counts one lock-stall cycle and clears it.
        self._lock_refused = False

    # ------------------------------------------------------------------ #
    # wiring (Network calls these during construction)
    # ------------------------------------------------------------------ #
    def _port_order(self, port: str, ident: Optional[Hashable]) -> tuple:
        """Canonical iteration/arbitration order for one port.

        Ports group by their prefix (``in`` / ``inj`` / ``local`` /
        ``to`` — the same grouping plain string sort gave) and order
        *within* a group by the canonical router/endpoint key, so router
        ``(1, 10)``'s ports no longer sort before ``(1, 2)``'s on
        fabrics wider than 10 the way the raw port strings did.
        """
        prefix = port.split(":", 1)[0]
        return (prefix, router_sort_key(ident if ident is not None else port))

    def add_input(
        self,
        port: str,
        queue: SimQueue,
        vc: int = 0,
        neighbor: Optional[Hashable] = None,
        order: Optional[Hashable] = None,
    ) -> SimQueue:
        """Wire input ``(port, vc)``; ``neighbor`` is the upstream router,
        ``order`` the id an endpoint port sorts by.  ``insort`` puts its
        record at its canonical place in ``_sorted_inputs`` (ties keep
        insertion order, as a stable sort did): canonical after every
        call, in any call order, with no finish-wiring step."""
        key = (port, vc)
        if key in self.inputs:
            raise ValueError(f"{self.name}: duplicate input port {key!r}")
        if not 0 <= vc < self.vcs:
            raise ValueError(f"{self.name}: input VC {vc} outside 0..{self.vcs - 1}")
        self.inputs[key] = queue
        record = _InputVc(
            port, vc, queue,
            (self._port_order(port, neighbor if order is None else order), vc),
            port if self.vcs == 1 else f"{port}@vc{vc}",
            neighbor,
        )
        insort(self._sorted_inputs, record, key=_ORDER)
        queue.wake_on_push(self)
        return queue

    def add_output(
        self,
        port: str,
        queue: SimQueue,
        vc: int = 0,
        neighbor: Optional[Hashable] = None,
        order: Optional[Hashable] = None,
    ) -> SimQueue:
        """:meth:`add_input`'s twin: the port's first VC makes its record
        and puts it in ``_physical_outputs``; a port's VCs are in VC
        order on its record."""
        key = (port, vc)
        if key in self.outputs:
            raise ValueError(f"{self.name}: duplicate output port {key!r}")
        if not 0 <= vc < self.vcs:
            raise ValueError(f"{self.name}: output VC {vc} outside 0..{self.vcs - 1}")
        self.outputs[key] = queue
        physical = self._ports.get(port)
        if physical is None:
            physical = self._ports[port] = _OutputPort(
                port, self._port_order(port, neighbor if order is None else order),
                neighbor, [None] * self.vcs,
            )
            insort(self._physical_outputs, physical, key=_ORDER)
        physical.vcs[vc] = _OutputVc(physical, vc, queue)
        return queue

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _route(self, dest: int) -> _OutputPort:
        try:
            name = self.table[dest]
        except KeyError:
            raise KeyError(
                f"{self.name}: no route to endpoint {dest} "
                f"(table has {sorted(self.table)})"
            ) from None
        return self._ports[name]

    def _framing_error(self, inp: _InputVc, flit: Flit) -> RuntimeError:
        where = inp.port if self.vcs == 1 else f"{inp.port}:vc{inp.vc}"
        return RuntimeError(
            f"{self.name}:{where}: body flit {flit!r} at front with no "
            f"allocation (framing bug)"
        )

    @staticmethod
    def _downstream_free(out: _OutputVc) -> int:
        queue = out.queue
        if queue.capacity is None:
            return 1 << 30
        return queue.capacity - queue.occupancy

    def _head_may_depart(self, inp: _InputVc, head: Flit, out: _OutputVc) -> bool:
        """The SAF/VCT gate on a head, both switches: the contiguous
        flits of its packet buffered here against the room downstream.
        (A wormhole head only needs one slot; the phases test that
        inline.)"""
        buffered = 0
        for flit in inp.queue:
            if flit.packet_id != head.packet_id:
                break
            buffered += 1
            if buffered == head.count:
                break
        return self.mode.head_may_depart(
            flits_buffered=buffered,
            packet_flits=head.count,
            downstream_free=self._downstream_free(out),
        )

    def _output_vc_for(
        self, inp: _InputVc, port: _OutputPort, escape=False
    ) -> _OutputVc:
        """The VC policy's output VC for a head on ``inp`` leaving by
        ``port`` (its escape VC when ``escape``), stored in
        ``inp.out_vcs``, where callers look first."""
        policy = self.vc_policy
        choose = policy.escape_output_vc if escape else policy.output_vc
        out_vc = choose(self.router_id, inp.neighbor, port.neighbor, inp.vc, self.vcs)
        if not 0 <= out_vc < self.vcs:
            raise ValueError(
                f"{self.name}: VC policy {policy.name!r} chose VC "
                f"{out_vc} outside 0..{self.vcs - 1} for {inp.port}:{inp.vc}"
                f" -> {port.name}"
            )
        inp.out_vcs[port] = out = port.vcs[out_vc]
        return out

    # ------------------------------------------------------------------ #
    # VC allocation (Phase V, one head at a time)
    # ------------------------------------------------------------------ #
    def _allocate_vc(self, inp: _InputVc, flit: Flit) -> Optional[_OutputVc]:
        """Claim an output VC for the head at the front of ``inp``, or
        ``None`` to retry next cycle (setting ``_lock_refused`` when a
        lock is why).

        Lock admission happens *here*: a head from a non-holding master
        is refused the output VC while the port is locked — granting it
        would let the blocked packet hoard the VC and stall the holder's
        own locked store forever.  Once granted, a stream always completes (a
        packet admitted before the lock was set behaves as having entered
        the locked path first, exactly like the single-VC switch).  A
        port is only ever locked on a router with ``lock_support``.
        """
        if flit.seq != 0:
            raise self._framing_error(inp, flit)
        if self.adaptive_table is not None:
            cached = inp.fail
            if (
                cached is not None
                and cached[0] == self._release_version
                and cached[1] is flit
            ):
                return None  # still blocked: nothing freed since
            out = self._allocate_adaptive(inp, flit)
            if out is None:
                return None  # no admissible candidate
        else:
            port = self._route(flit.dest)
            holder = port.lock
            if holder is not None and holder != flit.src:
                self._lock_refused = True
                return None  # admission refused until the locked store passes
            out = inp.out_vcs.get(port)
            if out is None:
                out = self._output_vc_for(inp, port)
            if out.owner is not None:
                return None  # output VC busy
        out.owner = inp
        inp.alloc = out
        inp.head = flit
        return out

    def _allocate_adaptive(self, inp: _InputVc, flit: Flit) -> Optional[_OutputVc]:
        """The least-congested admissible output VC for a head, or
        ``None`` (it retries, still requesting escape: the retry the
        deadlock-freedom argument leans on).  Candidates, in canonical
        port order, VCs ascending: every free adaptive-class VC of the
        packet's *minimal* outputs, then the escape VC of its DOR/XY
        output; the first best downstream free space wins.  An
        escape-class input VC stays escape (its dependency graph must
        stay acyclic); lock-family packets route escape-only, so a READEX
        and its locked store set and clear the same locks.  Lock
        admission is per candidate port; a head with none admissible is
        lock-stalled.
        """
        names = self.adaptive_table.outputs(flit.dest)
        if names[0][0] == "l":  # "local:...": ejection at the home router
            return self._allocate_at_home(inp, flit, self._ports[names[0]])
        ports = self._ports
        src = flit.src
        escape_on = self.vc_policy.escape
        n_adaptive = self._escape_base
        refused = False
        best: Optional[_OutputVc] = None
        best_free = -1
        if not escape_on or not (inp.vc >= n_adaptive or flit.lock_related):
            for name in names:
                port = ports[name]
                holder = port.lock
                if holder is not None and holder != src:
                    refused = True
                    continue
                for out in port.vcs[:n_adaptive]:
                    if out.owner is None:
                        free = self._downstream_free(out)
                        if free > best_free:
                            best, best_free = out, free
        if escape_on:
            port = ports[self.adaptive_table.escape_port(flit.dest)]
            holder = port.lock
            if holder is not None and holder != src:
                refused = True
            else:
                out = inp.out_vcs.get(port)
                if out is None:
                    out = self._output_vc_for(inp, port, escape=True)
                if out.owner is None and self._downstream_free(out) > best_free:
                    best = out
        if best is None:
            if refused:
                self._lock_refused = True
            else:
                # Nothing free and no lock involved: nothing changes until
                # an output VC is released or a lock moves (the version).
                inp.fail = (self._release_version, flit)
            return None
        if best.vc >= n_adaptive:
            self.packets_escape += 1
        else:
            self.packets_adaptive += 1
        return best

    def _allocate_at_home(
        self, inp: _InputVc, flit: Flit, port: _OutputPort
    ) -> Optional[_OutputVc]:
        """``_allocate_adaptive`` without a route choice: ejection by the
        home router's one local ``port``, keeping the input's VC class."""
        holder = port.lock
        if holder is not None and holder != flit.src:
            self._lock_refused = True
            return None
        out = port.vcs[inp.vc]
        if out.owner is None:
            return out
        inp.fail = (self._release_version, flit)
        return None

    # ------------------------------------------------------------------ #
    # the cycle
    # ------------------------------------------------------------------ #
    def next_event_cycle(self, now: int):
        """Dormant with nothing buffered at any input VC: tick is
        provably a no-op.

        Ages are already 0 for empty inputs (they reset the tick the
        queue empties), owned outputs cannot progress without flits, and
        lock state only changes when a tail flit passes — so an
        all-inputs-empty router can sleep until a link queue wakes it.
        """
        for inp in self._sorted_inputs:
            if inp.queue._committed:
                return now
        return None

    def tick(self, cycle: int) -> None:
        """The single-VC switch: solo branch, else Phases A, B, C."""
        # Single busy scan shared by both switch flavours: collects the
        # input VCs holding flits (quiescent routers return on the empty
        # list — see next_event_cycle for why that is exact).
        busy = [inp for inp in self._sorted_inputs if inp.queue._committed]
        if not busy:
            return
        if self.vcs > 1 or self.adaptive_table is not None:
            self._tick_vc(cycle, busy)
            return
        # stream_fast_path is read per tick: tests clear it after
        # construction to reach the reference arbitration below.
        sole_grant = self.stream_fast_path
        if (
            len(busy) == 1 and sole_grant and self.mode is SwitchingMode.WORMHOLE
        ):
            # Solo tick (module docstring): the one busy input either
            # moves its front flit or ages; Phases A-C reduce to exactly
            # this when nobody else holds a flit.
            inp = busy[0]
            out = inp.alloc
            if out is None:
                flit = inp.queue._committed[0]
                if flit.seq != 0:
                    raise self._framing_error(inp, flit)
                port = self._route(flit.dest)
                out = port.vcs[0]
                if out.owner is not None or not out.queue.can_push():
                    inp.age += 1
                    return
                holder = port.lock
                if holder is not None and holder != flit.src:
                    # Counted for a *ready* head only, like Phase A.
                    self.lock_stall_cycles += 1
                    inp.age += 1
                    return
                self.arbiter.note_sole_grant(port.name, inp.ckey)
            elif not out.queue.can_push():
                inp.age += 1
                return
            self._transfer(inp, out, cycle)
            inp.age = 0
            return
        self._age(busy, self._switch(self._route_heads(busy), True, sole_grant, cycle))

    def _tick_vc(self, cycle: int, busy: List[_InputVc]) -> None:
        """The VC switch: solo branch, else Phases V, B, C.  An input VC
        holding an allocation skips VC allocation, adaptive scoring and
        routing entirely: its held grant *is* the decision."""
        sole_grant = self.stream_fast_path
        if len(busy) == 1 and sole_grant and self.mode is SwitchingMode.WORMHOLE:
            # Solo tick (module docstring): Phase V's allocation runs
            # unchanged for the one busy input VC, and a ready flit then
            # moves at once; Phases B and C have nothing else to do.
            inp = busy[0]
            out = inp.alloc
            if out is None:
                out = self._allocate_vc(inp, inp.queue._committed[0])
                if out is None:
                    if self._lock_refused:
                        self._lock_refused = False
                        self.lock_stall_cycles += 1
                    inp.age += 1
                    return
            out_queue = out.queue
            capacity = out_queue.capacity
            if capacity is None or out_queue._occ < capacity:
                # The VC switch records a grant for every flit.
                self.arbiter.note_sole_grant(out.port.name, inp.ckey)
                self._transfer(inp, out, cycle)
                inp.age = 0
            else:
                inp.age += 1
            return
        self._age(busy, self._switch(self._allocate_vcs(busy), False, sole_grant, cycle))

    # ------------------------------------------------------------------ #
    # the phases
    # ------------------------------------------------------------------ #
    def _route_heads(
        self, busy: List[_InputVc]
    ) -> Dict[_OutputPort, List[_InputVc]]:
        """Phase A (single-VC): ``wants`` (output port -> asking inputs,
        in input order).  A stream asks to continue when its output has
        room.  A fresh head (an input with no allocation) waits if its
        output is held, not ready under the switching mode, or locked by
        another master (a lock stall, counted only for a head that was
        otherwise ready)."""
        wormhole = self.mode is SwitchingMode.WORMHOLE
        wants: Dict[_OutputPort, List[_InputVc]] = {}
        stalled = False
        for inp in busy:
            out = inp.alloc
            if out is None:
                flit = inp.queue._committed[0]
                if flit.seq != 0:
                    raise self._framing_error(inp, flit)
                port = self._route(flit.dest)
                out = port.vcs[0]
                if out.owner is not None:
                    continue  # Phase B continues the owner's stream
                if not (out.queue.can_push() if wormhole
                        else self._head_may_depart(inp, flit, out)):
                    continue
                holder = port.lock
                if holder is not None and holder != flit.src:
                    stalled = True
                    continue
            elif not out.queue.can_push():
                continue
            port = out.port
            if port in wants:
                wants[port].append(inp)
            else:
                wants[port] = [inp]
        if stalled:
            self.lock_stall_cycles += 1
        return wants

    def _allocate_vcs(
        self, busy: List[_InputVc]
    ) -> Dict[_OutputPort, List[_InputVc]]:
        """Phase V (VC switch): ``wants`` (physical output -> asking input
        VCs).  Fresh heads claim their output VC (:meth:`_allocate_vc`) in
        canonical (port, vc) order, then the switching gate applies.  The
        lock admission window is one cycle wide: allocation reads the lock
        state *before* the transfers of the same cycle, so a head
        VC-allocated in the very cycle a READEX tail passes counts as having
        entered the locked path first (tests/test_adaptive_routing.py).
        """
        wormhole = self.mode is SwitchingMode.WORMHOLE
        wants: Dict[_OutputPort, List[_InputVc]] = {}
        for inp in busy:
            flit = inp.queue._committed[0]
            out = inp.alloc
            if out is None:
                out = self._allocate_vc(inp, flit)
                if out is None:
                    continue
            if flit.seq == 0 and not wormhole:
                # Head under SAF/VCT (fresh or retrying).
                if not self._head_may_depart(inp, flit, out):
                    continue
            else:
                # Streaming (or wormhole-head) request: room downstream.
                out_queue = out.queue
                capacity = out_queue.capacity
                if capacity is not None and out_queue._occ >= capacity:
                    continue
            port = out.port
            if port in wants:
                wants[port].append(inp)
            else:
                wants[port] = [inp]
        if self._lock_refused:
            self._lock_refused = False
            self.lock_stall_cycles += 1
        return wants

    def _switch(
        self,
        wants: Dict[_OutputPort, List[_InputVc]],
        single_vc: bool,
        sole_grant: bool,
        cycle: int,
    ) -> List[_InputVc]:
        """Phase B, both switches: at most one flit per physical output
        and per input port, outputs in canonical order; returns the input
        (VC)s that sent.  Every request needs a grant on the VC switch
        (VCs share the channel flit by flit; the priority is the held
        packet's head's), only a fresh head on the single-VC switch,
        whose streams hold their port (a fresh head is the front flit of
        an input with no allocation, and leaves by the port's VC 0).
        With ``sole_grant`` a lone contender skips the candidates and
        the policy call; its grant is still recorded.
        """
        arbiter = self.arbiter
        sent: List[_InputVc] = []
        used_input_ports: set = set()
        for port in self._physical_outputs:
            contenders = wants.get(port)
            if contenders is None:
                continue
            inp = contenders[0]
            if len(contenders) == 1 and (
                sole_grant or (single_vc and inp.alloc is not None)
            ):
                if inp.port in used_input_ports:
                    continue  # input port already sent a flit this cycle
                if not single_vc or inp.alloc is None:
                    arbiter.note_sole_grant(port.name, inp.ckey)
            else:
                live = [c for c in contenders if c.port not in used_input_ports]
                if not live:
                    continue
                winner = arbiter.pick(port.name, [
                    Candidate(
                        port=c.ckey,
                        priority=(c.queue._committed[0] if single_vc else c.head).priority,
                        age=c.age,
                    )
                    for c in live
                ]).port
                inp = next(c for c in live if c.ckey == winner)
            out = inp.alloc
            self._transfer(inp, port.vcs[0] if out is None else out, cycle)
            sent.append(inp)
            used_input_ports.add(inp.port)
        return sent

    @staticmethod
    def _age(busy: List[_InputVc], sent: List[_InputVc]) -> None:
        """Phase C, both switches: an input (VC) that sent resets its
        age, one that waited with flits buffered ages by one.  Only the
        inputs of the busy scan need touching: an input drains only
        through our own transfers (committed items grow at the kernel's
        post-tick commit), so an empty input's age is already 0."""
        for inp in busy:
            if inp in sent:
                inp.age = 0
            else:
                inp.age += 1

    def _transfer(self, inp: _InputVc, out: _OutputVc, cycle: int) -> None:
        flit = inp.queue.pop()
        flit.vc = out.vc  # retag for the next link's VC
        out.queue.push(flit)
        self.flits_forwarded += 1
        seq = flit.seq
        tail = seq == flit.count - 1
        if seq == 0:
            head = flit
            trace = self._simulator.trace
            if trace.enabled:
                detail = {"packet": flit.packet_id, "dest": flit.dest,
                          "via": out.port.name}
                if self.vcs > 1:
                    detail["vc"] = out.vc
                trace.log(cycle, self.name, "route", **detail)
            if not tail:
                inp.alloc = out
                out.owner = inp
                inp.head = flit
                return
        elif tail:
            head = inp.head
            assert head is not None
        else:
            return  # body flit: no head/tail bookkeeping
        # Tail (of a single-flit packet too: Phase V may have claimed
        # the output VC for it, so the three are cleared, never set).
        inp.alloc = None
        out.owner = None
        inp.head = None
        self._release_version += 1  # a freed VC invalidates fail caches
        self.packets_forwarded += 1
        if self.lock_support and head.lock_related and head.packet is not None:
            self._update_lock(out.port, head, cycle)

    def _update_lock(self, port: _OutputPort, head: Flit, cycle: int) -> None:
        packet = head.packet
        assert packet is not None
        if packet.kind is not PacketKind.REQUEST:
            return
        if packet.opcode in _LOCK_SETTERS:
            port.lock = head.src
            self._release_version += 1
            self._simulator.trace.log(
                cycle, self.name, "lock_set", port=port.name, master=head.src
            )
        elif packet.opcode in _LOCK_CLEARERS:
            if port.lock == head.src:
                port.lock = None
                self._release_version += 1
                self._simulator.trace.log(
                    cycle, self.name, "lock_clear", port=port.name, master=head.src
                )

    # ------------------------------------------------------------------ #
    # introspection (tests / benches)
    # ------------------------------------------------------------------ #
    def locked_outputs(self) -> Dict[str, int]:
        return {
            port.name: port.lock
            for port in self._ports.values()
            if port.lock is not None
        }
