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
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.packet import PacketKind
from repro.core.transaction import Opcode
from repro.sim.component import Component
from repro.sim.queue import SimQueue
from repro.transport.flit import Flit
from repro.transport.qos import Arbiter, Candidate, PriorityArbiter
from repro.transport.routing import AdaptiveRoutingTable, VcPolicy
from repro.transport.switching import SwitchingMode
from repro.transport.topology import router_sort_key

_LOCK_SETTERS = (Opcode.READEX,)
_LOCK_CLEARERS = (Opcode.STORE_COND_LOCKED,)

#: Key of one input (or output) virtual channel: ``(port name, vc)``.
VcKey = Tuple[str, int]


class Router(Component):
    """One switch.  Wiring is done by :class:`~repro.transport.network.Network`."""

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
        buffer_capacity: int = 8,
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
        self.buffer_capacity = buffer_capacity
        self.arbiter = arbiter if arbiter is not None else PriorityArbiter()
        self.lock_support = lock_support
        self.vcs = vcs
        self.vc_policy = vc_policy if vc_policy is not None else VcPolicy()
        # Minimal-adaptive mode: route choice becomes a per-cycle
        # multi-candidate allocation decision (see _allocate_adaptive);
        # ``table`` then holds the escape (deterministic) next hops, and
        # the VC policy is an EscapeVcPolicy (Network._check_options).
        self.adaptive_table = adaptive_table
        if adaptive_table is not None:
            policy = self.vc_policy
            self._n_adaptive = policy.adaptive_vcs(vcs)
            self._escape_on = policy.escape
            self._escape_base_vc = policy.escape_base(vcs)
        # Allocation hot-path caches: the output VC of a hop (the escape
        # VC on an adaptive router) is a pure function of (input VC, out
        # port) geometry — VcPolicy is stateless; and a head that
        # found no free candidate (with no locks involved) stays blocked
        # until an output VC is released, so its failed scan is cached
        # against a release/lock version stamp instead of repeated every
        # cycle.
        self._vc_cache: Dict[Tuple[VcKey, str], int] = {}
        self._alloc_fail: Dict[VcKey, Optional[Tuple[int, Flit]]] = {}
        self._release_version = 0
        self._init_ports()
        self._init_stats()

    def _init_ports(self) -> None:
        """Empty port maps and per-port state; ``add_input`` /
        ``add_output`` fill them as the network wires the router."""
        # Buffers keyed by (port, vc); vc is always 0 when vcs == 1.
        self.inputs: Dict[VcKey, SimQueue] = {}
        self.outputs: Dict[VcKey, SimQueue] = {}
        # Hot-path port lists, kept in canonical order as ports are wired
        # so tick never sorts (arbitration order is the (port, vc) key).
        self._sorted_inputs: List[tuple] = []
        self._sorted_outputs: List[tuple] = []
        self._physical_outputs: List[str] = []
        # per-input-VC state
        self._input_alloc: Dict[VcKey, Optional[VcKey]] = {}
        self._input_head: Dict[VcKey, Optional[Flit]] = {}
        self._input_age: Dict[VcKey, int] = {}
        # per-output-VC / per-output state
        self._output_owner: Dict[VcKey, Optional[VcKey]] = {}
        self._output_lock: Dict[str, Optional[int]] = {}
        # neighbour geometry for the VC policy (None = endpoint port)
        self._in_neighbor: Dict[str, Optional[Hashable]] = {}
        self._out_neighbor: Dict[str, Optional[Hashable]] = {}
        # arbitration candidate ids: with one VC the historical port name,
        # otherwise "port@vc<N>" — one candidate per (input, VC)
        self._ckey: Dict[VcKey, str] = {}
        self._ckey_to_ivc: Dict[str, VcKey] = {}
        # canonical order per (vc key, queue) list entry / physical port
        self._port_keys: Dict[Tuple[VcKey, SimQueue], tuple] = {}
        self._phys_out_keys: Dict[str, tuple] = {}
        # each physical output's VC-0 key: the single-VC switch's outputs
        self._vc0_okey: Dict[str, VcKey] = {}

    def _init_stats(self) -> None:
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
        ``order`` the id an endpoint port sorts by.  ``insort`` puts it
        at its canonical place in ``_sorted_inputs`` (ties keep insertion
        order, as a stable sort did): canonical after every call, in any
        call order, with no finish-wiring step."""
        key = (port, vc)
        if key in self.inputs:
            raise ValueError(f"{self.name}: duplicate input port {key!r}")
        if not 0 <= vc < self.vcs:
            raise ValueError(f"{self.name}: input VC {vc} outside 0..{self.vcs - 1}")
        self.inputs[key] = queue
        self._input_alloc[key] = None
        self._input_head[key] = None
        self._input_age[key] = 0
        self._alloc_fail[key] = None
        self._in_neighbor[port] = neighbor
        ckey = port if self.vcs == 1 else f"{port}@vc{vc}"
        self._ckey[key] = ckey
        self._ckey_to_ivc[ckey] = key
        entry = (key, queue)
        self._port_keys[entry] = (
            self._port_order(port, neighbor if order is None else order), vc
        )
        insort(self._sorted_inputs, entry, key=self._port_keys.__getitem__)
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
        """:meth:`add_input`'s twin: ``_sorted_outputs``, ``_physical_outputs``."""
        key = (port, vc)
        if key in self.outputs:
            raise ValueError(f"{self.name}: duplicate output port {key!r}")
        if not 0 <= vc < self.vcs:
            raise ValueError(f"{self.name}: output VC {vc} outside 0..{self.vcs - 1}")
        self.outputs[key] = queue
        self._output_owner[key] = None
        self._out_neighbor[port] = neighbor
        port_order = self._port_order(port, neighbor if order is None else order)
        if port not in self._output_lock:
            self._output_lock[port] = None
            self._phys_out_keys[port] = port_order
            insort(
                self._physical_outputs, port, key=self._phys_out_keys.__getitem__
            )
        if vc == 0:
            self._vc0_okey[port] = key
        entry = (key, queue)
        self._port_keys[entry] = (port_order, vc)
        insort(self._sorted_outputs, entry, key=self._port_keys.__getitem__)
        return queue

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _route(self, dest: int) -> str:
        try:
            return self.table[dest]
        except KeyError:
            raise KeyError(
                f"{self.name}: no route to endpoint {dest} "
                f"(table has {sorted(self.table)})"
            ) from None

    def _framing_error(self, ivc: VcKey, flit: Flit) -> RuntimeError:
        where = ivc[0] if self.vcs == 1 else f"{ivc[0]}:vc{ivc[1]}"
        return RuntimeError(
            f"{self.name}:{where}: body flit {flit!r} at front with no "
            f"allocation (framing bug)"
        )

    def _downstream_free(self, okey: VcKey) -> int:
        queue = self.outputs[okey]
        if queue.capacity is None:
            return 1 << 30
        return queue.capacity - queue.occupancy

    def _head_may_depart(self, queue: SimQueue, head: Flit, okey: VcKey) -> bool:
        """The SAF/VCT gate on a head, both switches: the contiguous
        flits of its packet buffered here against the room downstream.
        (A wormhole head only needs one slot; the phases test that
        inline.)"""
        buffered = 0
        for flit in queue:
            if flit.packet_id != head.packet_id:
                break
            buffered += 1
            if buffered == head.count:
                break
        return self.mode.head_may_depart(
            flits_buffered=buffered,
            packet_flits=head.count,
            downstream_free=self._downstream_free(okey),
        )

    def _output_vc_for(self, ivc: VcKey, out_port: str, escape=False) -> int:
        """The VC policy's output VC for a head on ``ivc`` leaving by
        ``out_port`` (its escape VC when ``escape``), cached."""
        out_vc = self._vc_cache.get((ivc, out_port))
        if out_vc is None:
            in_port, in_vc = ivc
            policy = self.vc_policy
            choose = policy.escape_output_vc if escape else policy.output_vc
            out_vc = choose(
                self.router_id,
                self._in_neighbor.get(in_port),
                self._out_neighbor.get(out_port),
                in_vc,
                self.vcs,
            )
            if not 0 <= out_vc < self.vcs:
                raise ValueError(
                    f"{self.name}: VC policy {policy.name!r} chose VC "
                    f"{out_vc} outside 0..{self.vcs - 1} for {in_port}:{in_vc}"
                    f" -> {out_port}"
                )
            self._vc_cache[(ivc, out_port)] = out_vc
        return out_vc

    # ------------------------------------------------------------------ #
    # VC allocation (Phase V, one head at a time)
    # ------------------------------------------------------------------ #
    def _allocate_vc(self, ivc: VcKey, flit: Flit) -> Optional[VcKey]:
        """Claim an output VC for the head at the front of ``ivc``, or
        ``None`` to retry next cycle (setting ``_lock_refused`` when a
        lock is why).

        Lock admission happens *here*: a head from a non-holding master
        is refused the output VC while the port is locked — granting it
        would let the blocked packet hoard the VC and stall the holder's
        own locked store forever.  Once granted, a stream always completes (a
        packet admitted before the lock was set behaves as having entered
        the locked path first, exactly like the single-VC switch).
        """
        if flit.seq != 0:
            raise self._framing_error(ivc, flit)
        if self.adaptive_table is not None:
            cached = self._alloc_fail[ivc]
            if (
                cached is not None
                and cached[0] == self._release_version
                and cached[1] is flit
            ):
                return None  # still blocked: nothing freed since
            okey = self._allocate_adaptive(ivc, flit)
            if okey is None:
                return None  # no admissible candidate
        else:
            out_port = self._route(flit.dest)
            if self.lock_support:
                holder = self._output_lock[out_port]
                if holder is not None and holder != flit.src:
                    self._lock_refused = True
                    return None  # admission refused until the locked store passes
            okey = (out_port, self._output_vc_for(ivc, out_port))
            if self._output_owner[okey] is not None:
                return None  # output VC busy
        self._output_owner[okey] = ivc
        self._input_alloc[ivc] = okey
        self._input_head[ivc] = flit
        return okey

    def _allocate_adaptive(self, ivc: VcKey, flit: Flit) -> Optional[VcKey]:
        """The least-congested admissible (output port, VC) for a head, or
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
        ports = self.adaptive_table.outputs(flit.dest)
        if ports[0][0] == "l":  # "local:...": ejection at the home router
            return self._allocate_at_home(ivc, flit, ports[0])
        src = flit.src
        locks = self._output_lock if self.lock_support else None
        output_owner = self._output_owner
        escape_on = self._escape_on
        refused = False
        best: Optional[VcKey] = None
        best_free = -1
        if not escape_on or not (ivc[1] >= self._escape_base_vc or flit.lock_related):
            for port in ports:
                holder = locks[port] if locks is not None else None
                if holder is not None and holder != src:
                    refused = True
                    continue
                for vc in range(self._n_adaptive):
                    okey = (port, vc)
                    if output_owner[okey] is None:
                        free = self._downstream_free(okey)
                        if free > best_free:
                            best, best_free = okey, free
        if escape_on:
            eport = self.adaptive_table.escape_port(flit.dest)
            holder = locks[eport] if locks is not None else None
            if holder is not None and holder != src:
                refused = True
            else:
                evc = self._vc_cache.get((ivc, eport))
                if evc is None:
                    evc = self._output_vc_for(ivc, eport, escape=True)
                okey = (eport, evc)
                if output_owner[okey] is None:
                    if self._downstream_free(okey) > best_free:
                        best = okey
        if best is None:
            if refused:
                self._lock_refused = True
            else:
                # Nothing free and no lock involved: nothing changes until
                # an output VC is released or a lock moves (the version).
                self._alloc_fail[ivc] = (self._release_version, flit)
            return None
        self._count_adaptive_grant(best)
        return best

    def _allocate_at_home(
        self, ivc: VcKey, flit: Flit, port: str
    ) -> Optional[VcKey]:
        """``_allocate_adaptive`` without a route choice: ejection by the
        home router's one local ``port``, keeping the input's VC class."""
        if self.lock_support:
            holder = self._output_lock[port]
            if holder is not None and holder != flit.src:
                self._lock_refused = True
                return None
        okey = (port, ivc[1])
        if self._output_owner[okey] is None:
            return okey
        self._alloc_fail[ivc] = (self._release_version, flit)
        return None

    def _count_adaptive_grant(self, best: VcKey) -> None:
        """An adaptive grant's class: escape or adaptive VC."""
        if self._escape_on and best[1] >= self._escape_base_vc:
            self.packets_escape += 1
        else:
            self.packets_adaptive += 1

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
        for _key, queue in self._sorted_inputs:
            if queue._committed:
                return now
        return None

    def tick(self, cycle: int) -> None:
        """The single-VC switch: solo branch, else Phases A, B, C."""
        # Single busy scan shared by both switch flavours: collects the
        # input VCs holding flits (quiescent routers return on the empty
        # list — see next_event_cycle for why that is exact).
        busy: List[tuple] = [
            item for item in self._sorted_inputs if item[1]._committed
        ]
        if not busy:
            return
        if self.vcs > 1 or self.adaptive_table is not None:
            self._tick_vc(cycle, busy)
            return
        input_age = self._input_age
        outputs = self.outputs
        arbiter = self.arbiter
        # stream_fast_path is read per tick: tests clear it after
        # construction to reach the reference arbitration below.
        sole_grant = self.stream_fast_path
        if (
            len(busy) == 1 and sole_grant and self.mode is SwitchingMode.WORMHOLE
        ):
            # Solo tick (module docstring): the one busy input either
            # moves its front flit or ages; Phases A-C reduce to exactly
            # this when nobody else holds a flit.
            ivc, queue = busy[0]
            okey = self._input_alloc[ivc]
            if okey is None:
                flit = queue._committed[0]
                if flit.seq != 0:
                    raise self._framing_error(ivc, flit)
                out_port = self._route(flit.dest)
                okey = (out_port, 0)
                if (
                    self._output_owner[okey] is not None
                    or not outputs[okey].can_push()
                ):
                    input_age[ivc] += 1
                    return
                holder = self._output_lock[out_port] if self.lock_support else None
                if holder is not None and holder != flit.src:
                    # Counted for a *ready* head only, like Phase A.
                    self.lock_stall_cycles += 1
                    input_age[ivc] += 1
                    return
                arbiter.note_sole_grant(out_port, self._ckey[ivc])
            elif not outputs[okey].can_push():
                input_age[ivc] += 1
                return
            self._transfer(ivc, okey, cycle)
            input_age[ivc] = 0
            return
        wants, heads = self._route_heads(busy)
        self._age(busy, self._switch(wants, heads, self._vc0_okey, sole_grant, cycle))

    def _tick_vc(self, cycle: int, busy: List[tuple]) -> None:
        """The VC switch: solo branch, else Phases V, B, C.  An input VC
        holding an allocation skips VC allocation, adaptive scoring and
        routing entirely: its held grant *is* the decision."""
        arbiter = self.arbiter
        sole_grant = self.stream_fast_path
        if len(busy) == 1 and sole_grant and self.mode is SwitchingMode.WORMHOLE:
            # Solo tick (module docstring): Phase V's allocation runs
            # unchanged for the one busy input VC, and a ready flit then
            # moves at once; Phases B and C have nothing else to do.
            ivc, queue = busy[0]
            input_age = self._input_age
            okey = self._input_alloc[ivc]
            if okey is None:
                okey = self._allocate_vc(ivc, queue._committed[0])
                if okey is None:
                    if self._lock_refused:
                        self._lock_refused = False
                        self.lock_stall_cycles += 1
                    input_age[ivc] += 1
                    return
            out_queue = self.outputs[okey]
            capacity = out_queue.capacity
            if capacity is None or out_queue._occ < capacity:
                # The VC switch records a grant for every flit.
                arbiter.note_sole_grant(okey[0], self._ckey[ivc])
                self._transfer(ivc, okey, cycle)
                input_age[ivc] = 0
            else:
                input_age[ivc] += 1
            return
        wants = self._allocate_vcs(busy)
        self._age(busy, self._switch(wants, self._input_head, None, sole_grant, cycle))

    # ------------------------------------------------------------------ #
    # the phases
    # ------------------------------------------------------------------ #
    def _route_heads(
        self, busy: List[tuple]
    ) -> Tuple[Dict[str, List[VcKey]], Dict[VcKey, Flit]]:
        """Phase A (single-VC): ``wants`` (output port -> asking inputs,
        in input order) and ``heads`` (the fresh heads among them).  A
        stream asks to continue when its output has room.  A fresh head
        waits if its output is held, not ready under the switching mode,
        or locked by another master (a lock stall, counted only for a head
        that was otherwise ready)."""
        input_alloc = self._input_alloc
        output_owner = self._output_owner
        outputs = self.outputs
        wormhole = self.mode is SwitchingMode.WORMHOLE
        locks = self._output_lock if self.lock_support else None
        wants: Dict[str, List[VcKey]] = {}
        heads: Dict[VcKey, Flit] = {}
        stalled = False
        for ivc, queue in busy:
            okey = input_alloc[ivc]
            if okey is None:
                flit = queue._committed[0]
                if flit.seq != 0:
                    raise self._framing_error(ivc, flit)
                okey = (self._route(flit.dest), 0)
                out_port = okey[0]
                if output_owner[okey] is not None:
                    continue  # Phase B continues the owner's stream
                if not (outputs[okey].can_push() if wormhole
                        else self._head_may_depart(queue, flit, okey)):
                    continue
                holder = locks[out_port] if locks is not None else None
                if holder is not None and holder != flit.src:
                    stalled = True
                    continue
                heads[ivc] = flit
            elif not outputs[okey].can_push():
                continue
            if okey[0] in wants:
                wants[okey[0]].append(ivc)
            else:
                wants[okey[0]] = [ivc]
        if stalled:
            self.lock_stall_cycles += 1
        return wants, heads

    def _allocate_vcs(self, busy: List[tuple]) -> Dict[str, List[VcKey]]:
        """Phase V (VC switch): ``wants`` (physical output -> asking input
        VCs).  Fresh heads claim their output VC (:meth:`_allocate_vc`) in
        canonical (port, vc) order, then the switching gate applies.  The
        lock admission window is one cycle wide: allocation reads the lock
        state *before* the transfers of the same cycle, so a head
        VC-allocated in the very cycle a READEX tail passes counts as having
        entered the locked path first (tests/test_adaptive_routing.py).
        """
        input_alloc = self._input_alloc
        outputs = self.outputs
        wormhole = self.mode is SwitchingMode.WORMHOLE
        wants: Dict[str, List[VcKey]] = {}
        for ivc, queue in busy:
            flit = queue._committed[0]
            okey = input_alloc[ivc]
            if okey is None:
                okey = self._allocate_vc(ivc, flit)
                if okey is None:
                    continue
            if flit.seq == 0 and not wormhole:
                # Head under SAF/VCT (fresh or retrying).
                if not self._head_may_depart(queue, flit, okey):
                    continue
            else:
                # Streaming (or wormhole-head) request: room downstream.
                out_queue = outputs[okey]
                capacity = out_queue.capacity
                if capacity is not None and out_queue._occ >= capacity:
                    continue
            if okey[0] in wants:
                wants[okey[0]].append(ivc)
            else:
                wants[okey[0]] = [ivc]
        if self._lock_refused:
            self._lock_refused = False
            self.lock_stall_cycles += 1
        return wants

    def _switch(
        self,
        wants: Dict[str, List[VcKey]],
        heads: Dict[VcKey, Optional[Flit]],
        port_okeys: Optional[Dict[str, VcKey]],
        sole_grant: bool,
        cycle: int,
    ) -> List[VcKey]:
        """Phase B, both switches: at most one flit per physical output
        and per input port, outputs in canonical order; returns the input
        (VC)s that sent.  ``heads`` holds the head flit of every request
        that needs a grant: all of them on the VC switch (``_input_head``;
        VCs share the channel flit by flit), only fresh heads on the
        single-VC switch, whose streams hold their port.  A flit leaves
        by its claimed output VC, or on the single-VC switch by
        ``port_okeys[port]``.  With ``sole_grant`` a lone contender skips
        the candidates and the policy call; its grant is still recorded.
        """
        arbiter = self.arbiter
        ckey = self._ckey
        input_alloc = self._input_alloc
        input_age = self._input_age
        sent: List[VcKey] = []
        used_input_ports: set = set()
        for out_port in self._physical_outputs:
            contenders = wants.get(out_port)
            if contenders is None:
                continue
            ivc = contenders[0]
            if len(contenders) == 1 and (sole_grant or ivc not in heads):
                if ivc[0] in used_input_ports:
                    continue  # input port already sent a flit this cycle
                if ivc in heads:
                    arbiter.note_sole_grant(out_port, ckey[ivc])
            else:
                candidates: List[Candidate] = []
                for ivc in contenders:
                    if ivc[0] in used_input_ports:
                        continue
                    candidates.append(Candidate(
                        port=ckey[ivc],
                        priority=heads[ivc].priority,
                        age=input_age[ivc],
                    ))
                if not candidates:
                    continue
                ivc = self._ckey_to_ivc[arbiter.pick(out_port, candidates).port]
            # (a single-VC head claims its output by this very transfer)
            okey = input_alloc[ivc] if port_okeys is None else port_okeys[out_port]
            self._transfer(ivc, okey, cycle)
            sent.append(ivc)
            used_input_ports.add(ivc[0])
        return sent

    def _age(self, busy: List[tuple], sent: List[VcKey]) -> None:
        """Phase C, both switches: an input (VC) that sent resets its
        age, one that waited with flits buffered ages by one.  Only the
        inputs of the busy scan need touching: an input drains only
        through our own transfers (committed items grow at the kernel's
        post-tick commit), so an empty input's age is already 0."""
        input_age = self._input_age
        for ivc, _queue in busy:
            if ivc in sent:
                input_age[ivc] = 0
            else:
                input_age[ivc] += 1

    def _transfer(self, ivc: VcKey, okey: VcKey, cycle: int) -> None:
        out_port, out_vc = okey
        flit = self.inputs[ivc].pop()
        flit.vc = out_vc  # retag for the next link's VC
        self.outputs[okey].push(flit)
        self.flits_forwarded += 1
        seq = flit.seq
        tail = seq == flit.count - 1
        if seq == 0:
            head = flit
            trace = self._simulator.trace
            if trace.enabled:
                detail = {"packet": flit.packet_id, "dest": flit.dest, "via": out_port}
                if self.vcs > 1:
                    detail["vc"] = out_vc
                trace.log(cycle, self.name, "route", **detail)
            if not tail:
                self._input_alloc[ivc] = okey
                self._output_owner[okey] = ivc
                self._input_head[ivc] = flit
                return
        elif tail:
            head = self._input_head[ivc]
            assert head is not None
        else:
            return  # body flit: no head/tail bookkeeping
        # Tail (of a single-flit packet too: Phase V may have claimed
        # the output VC for it, so the three are cleared, never set).
        self._input_alloc[ivc] = None
        self._output_owner[okey] = None
        self._input_head[ivc] = None
        self._release_version += 1  # a freed VC invalidates fail caches
        self.packets_forwarded += 1
        if self.lock_support and head.lock_related and head.packet is not None:
            self._update_lock(out_port, head, cycle)

    def _update_lock(self, out_port: str, head: Flit, cycle: int) -> None:
        packet = head.packet
        assert packet is not None
        if packet.kind is not PacketKind.REQUEST:
            return
        if packet.opcode in _LOCK_SETTERS:
            self._output_lock[out_port] = head.src
            self._release_version += 1
            self._simulator.trace.log(
                cycle, self.name, "lock_set", port=out_port, master=head.src
            )
        elif packet.opcode in _LOCK_CLEARERS:
            if self._output_lock[out_port] == head.src:
                self._output_lock[out_port] = None
                self._release_version += 1
                self._simulator.trace.log(
                    cycle, self.name, "lock_clear", port=out_port, master=head.src
                )

    # ------------------------------------------------------------------ #
    # introspection (tests / benches)
    # ------------------------------------------------------------------ #
    def locked_outputs(self) -> Dict[str, int]:
        return {
            port: holder
            for port, holder in self._output_lock.items()
            if holder is not None
        }
