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
  after a ``LOCK``/``READEX`` request's tail passes an output port, the
  port admits only packets from the locking master until that master's
  ``UNLOCK``/``STORE_COND_LOCKED`` tail passes.  Locks are per physical
  output port (they model a locked path, not a buffer).

**The solo rule.**  Arbitration needs two requesters.  When the busy
scan finds exactly one input (VC) holding flits — most loaded ticks:
the switch moves about one flit per productive tick — that input either
moves its front flit or ages by one, and the tick does only that: no
``heads`` / ``wants`` maps, no walk over the outputs, no re-ageing of
the other inputs.  A streaming input moves if its owned output has
room; a fresh head is routed, must find its output (VC) unowned, pass
lock admission (and, on the VC switch, the dead-port check and VC
allocation, which run unchanged) and find room, and its grant is
recorded with :meth:`Arbiter.note_sole_grant` exactly where the general
path records one.  The gate, evaluated per tick: one busy input,
``stream_fast_path`` set, an arbiter with ``sole_pick_is_grant``, and
wormhole switching; the single-VC switch also stands down on a
fault-degraded plane.  Everything else takes the general path, which
is also the reference: two or more busy inputs (there is something to
arbitrate), SAF/VCT (head departure depends on the buffered packet), a
custom arbiter whose lone ``pick`` may do more than record a grant,
degraded single-VC planes (dead-port masking lives in the general
Phase A), and ``stream_fast_path = False`` — which tests assign after
construction to compare the two, cycle for cycle.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.packet import PacketKind
from repro.core.transaction import Opcode
from repro.sim.component import Component
from repro.sim.queue import SimQueue
from repro.sim.snapshot import Snapshottable
from repro.transport.flit import Flit
from repro.transport.qos import Arbiter, Candidate, PriorityArbiter
from repro.transport.routing import AdaptiveRoutingTable, EscapeVcPolicy, VcPolicy
from repro.transport.switching import SwitchingMode
from repro.transport.topology import router_sort_key

_LOCK_SETTERS = (Opcode.LOCK, Opcode.READEX)
_LOCK_CLEARERS = (Opcode.UNLOCK, Opcode.STORE_COND_LOCKED)

#: Key of one input (or output) virtual channel: ``(port name, vc)``.
VcKey = Tuple[str, int]


class Router(Component, Snapshottable):
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
        if vcs < 1:
            raise ValueError(f"{name}: vcs must be >= 1, got {vcs}")
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
        # ``table`` then holds the escape (deterministic) next hops.
        self.adaptive_table = adaptive_table
        if adaptive_table is not None and not isinstance(
            self.vc_policy, EscapeVcPolicy
        ):
            raise ValueError(
                f"{name}: adaptive routing needs an EscapeVcPolicy to "
                f"split adaptive/escape VC classes, got "
                f"{self.vc_policy.name!r}"
            )
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
        # Buffers keyed by (port, vc); vc is always 0 when vcs == 1.
        self.inputs: Dict[VcKey, SimQueue] = {}
        self.outputs: Dict[VcKey, SimQueue] = {}
        # Hot-path port lists, presorted at wiring time so tick never
        # calls sorted() (arbitration order is the sorted (port, vc) key).
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
        # canonical iteration order per (port, vc) / per physical port
        self._port_keys: Dict[VcKey, tuple] = {}
        self._phys_out_keys: Dict[str, tuple] = {}
        # Fault state (pushed by transport.faults.FaultInjector, which is
        # registered before the routers so an epoch's state is visible to
        # every router tick of the same cycle).  _dead_ports are this
        # router's downed *output* ports; _healthy_adaptive keeps the
        # pristine table so degraded grants can be classified.
        self._dead_ports: frozenset = frozenset()
        self._fault_degraded = False
        self._healthy_adaptive = adaptive_table
        # stats
        self.flits_forwarded = 0
        self.packets_forwarded = 0
        #: Packets granted an adaptive-class vs escape-class output VC at
        #: this router (adaptive routing only; ejection counts as neither).
        self.packets_adaptive = 0
        self.packets_escape = 0
        #: Cycles in which at least one output was lock-stalled (counted
        #: at most once per cycle; per-output detail below).
        self.lock_stall_cycles = 0
        self.lock_stalls_by_output: Dict[str, int] = {}
        self.output_busy_cycles: Dict[str, int] = {}
        #: Packets granted an output while the plane was degraded and the
        #: candidate set differed from healthy (faults_hit), resp. granted
        #: a port outside the healthy-minimal set (packets_rerouted —
        #: genuine detours around a failure).
        self.faults_hit = 0
        self.packets_rerouted = 0
        #: Cycles in which at least one head or in-flight stream here was
        #: blocked purely by a downed output port.
        self.fault_stall_cycles = 0

    # ------------------------------------------------------------------ #
    # wiring (Network calls these during construction)
    # ------------------------------------------------------------------ #
    def _candidate_key(self, port: str, vc: int) -> str:
        return port if self.vcs == 1 else f"{port}@vc{vc}"

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
        ckey = self._candidate_key(port, vc)
        self._ckey[key] = ckey
        self._ckey_to_ivc[ckey] = key
        self._port_keys[key] = (
            self._port_order(port, neighbor if order is None else order), vc
        )
        self._sorted_inputs = sorted(
            self.inputs.items(), key=lambda item: self._port_keys[item[0]]
        )
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
            self.output_busy_cycles[port] = 0
            self.lock_stalls_by_output[port] = 0
            self._phys_out_keys[port] = port_order
            self._physical_outputs = sorted(
                self._output_lock, key=self._phys_out_keys.__getitem__
            )
        self._port_keys[key] = (port_order, vc)
        self._sorted_outputs = sorted(
            self.outputs.items(), key=lambda item: self._port_keys[item[0]]
        )
        queue.wake_on_pop(self)
        return queue

    def apply_fault_state(
        self,
        dead_ports: frozenset,
        degraded: bool,
        adaptive_table: Optional[AdaptiveRoutingTable] = None,
    ) -> None:
        """New fault epoch: downed outputs, degraded flag, swapped tables.

        Called by the plane's :class:`~repro.transport.faults.FaultInjector`
        once per applied event batch.  A downed output is a transmit-side
        cut: no *new* packet is granted the port until it comes back,
        while a packet whose head already won it drains across (a
        wormhole cannot be retracted mid-flight; there is no
        retransmission layer to recover stranded flits).  Adaptive
        planes additionally receive the
        surviving-graph tables (or their pristine healthy tables on full
        heal).  The release-version bump invalidates every cached failed
        allocation — blocked heads rescan under the new epoch — and the
        wake covers the case where a heal un-blocks a router that was
        idle-parked with frozen upstream traffic elsewhere.
        """
        self._dead_ports = dead_ports
        self._fault_degraded = degraded
        if self.adaptive_table is not None and adaptive_table is not None:
            self.adaptive_table = adaptive_table
        self._release_version += 1
        self.wake()

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

    def _flits_of_front_packet(self, queue: SimQueue, head: Flit) -> int:
        """Contiguous flits of the front packet currently buffered."""
        buffered = 0
        for flit in queue:
            if flit.packet_id != head.packet_id:
                break
            buffered += 1
            if buffered == head.count:
                break
        return buffered

    def _downstream_free(self, okey: VcKey) -> int:
        queue = self.outputs[okey]
        if queue.capacity is None:
            return 1 << 30
        return queue.capacity - queue.occupancy

    def _output_vc_for(self, ivc: VcKey, out_port: str) -> int:
        """Ask the VC policy for the output VC of a head flit on ``ivc``."""
        out_vc = self._vc_cache.get((ivc, out_port))
        if out_vc is None:
            in_port, in_vc = ivc
            out_vc = self.vc_policy.output_vc(
                self.router_id,
                self._in_neighbor.get(in_port),
                self._out_neighbor.get(out_port),
                in_vc,
                self.vcs,
            )
            if not 0 <= out_vc < self.vcs:
                raise ValueError(
                    f"{self.name}: VC policy {self.vc_policy.name!r} chose VC "
                    f"{out_vc} outside 0..{self.vcs - 1} for {in_port}:{in_vc}"
                    f" -> {out_port}"
                )
            self._vc_cache[(ivc, out_port)] = out_vc
        return out_vc

    def _allocate_adaptive(
        self, ivc: VcKey, flit: Flit, lock_stalled_ports: List[str]
    ) -> Optional[VcKey]:
        """Pick the least-congested admissible (output port, VC) for a head.

        The candidate set is every free adaptive-class VC of every output
        in the packet's *minimal* set, plus the escape VC of the
        deterministic (DOR/XY) output.  Candidates are scored by
        downstream free space — credit/buffer slots left in the output
        queue, which on a serialized link is the credit-backed staging
        buffer — and the best strictly-greater score wins; ties keep the
        earliest candidate, and candidates are enumerated in canonical
        ``router_sort_key`` port order with VCs ascending and the escape
        candidate last, so selection is deterministic and
        cycle-reproducible.  Returns ``None`` when nothing is admissible
        this cycle (the head retries, still requesting escape — that
        retry loop is what the deadlock-freedom argument leans on).

        Constraints preserving the rest of the transport contract:

        - a packet whose input VC is escape-class stays on the escape
          subnetwork (its dependency graph must remain acyclic);
        - LOCK-family packets route escape-only, so a LOCK and its
          paired UNLOCK traverse the *same* ports and the per-port lock
          state they set and clear stays matched;
        - lock admission applies per candidate port: a head refused one
          locked port may still route around via another minimal output,
          and only a head with no admissible candidate at all (with at
          least one lock refusal) counts as lock-stalled.
        """
        table = self.adaptive_table
        in_port, in_vc = ivc
        src = flit.src
        lock_support = self.lock_support
        output_lock = self._output_lock
        output_owner = self._output_owner
        escape_on = self._escape_on
        escape_base = self._escape_base_vc
        ports = table.outputs(flit.dest)
        if not ports:
            # Destination unreachable this fault epoch: nothing to scan.
            # The failure is cached against the epoch's release version
            # (a heal bumps it) and the injector's watchdog reports the
            # packet if the partition is permanent.
            self._alloc_fail[ivc] = (self._release_version, flit)
            return None
        # Ejection at the home router: single local port, keep the class.
        if ports[0][0] == "l":  # "local:..."
            port = ports[0]
            if lock_support:
                holder = output_lock[port]
                if holder is not None and holder != src:
                    lock_stalled_ports.append(port)
                    return None
            okey = (port, in_vc)
            if output_owner[okey] is None:
                return okey
            self._alloc_fail[ivc] = (self._release_version, flit)
            return None
        refused: List[str] = []
        best: Optional[VcKey] = None
        best_free = -1
        from_escape = escape_on and in_vc >= escape_base
        if not (from_escape or (escape_on and flit.lock_related)):
            for port in ports:
                if lock_support:
                    holder = output_lock[port]
                    if holder is not None and holder != src:
                        refused.append(port)
                        continue
                for vc in range(self._n_adaptive):
                    okey = (port, vc)
                    if output_owner[okey] is not None:
                        continue
                    free = self._downstream_free(okey)
                    if free > best_free:
                        best, best_free = okey, free
        if escape_on:
            eport = table.escape_port(flit.dest)
            holder = output_lock[eport] if lock_support else None
            if holder is not None and holder != src:
                if eport not in refused:
                    refused.append(eport)
            else:
                cache_key = (ivc, eport)
                evc = self._vc_cache.get(cache_key)
                if evc is None:
                    evc = self.vc_policy.escape_output_vc(
                        self.router_id,
                        self._in_neighbor.get(in_port),
                        self._out_neighbor[eport],
                        in_vc,
                        self.vcs,
                    )
                    self._vc_cache[cache_key] = evc
                okey = (eport, evc)
                if output_owner[okey] is None:
                    free = self._downstream_free(okey)
                    if free > best_free:
                        best, best_free = okey, free
        if best is None:
            if refused:
                lock_stalled_ports.extend(refused)
            else:
                # Nothing free and no lock involved: the outcome cannot
                # change until an output VC is released (or a lock
                # changes), so skip rescans until the version bumps.
                self._alloc_fail[ivc] = (self._release_version, flit)
            return None
        if escape_on and best[1] >= escape_base:
            self.packets_escape += 1
        else:
            self.packets_adaptive += 1
        if self._fault_degraded:
            healthy = self._healthy_adaptive.candidates.get(flit.dest, ())
            if ports != healthy:
                self.faults_hit += 1
                if best[0] not in healthy:
                    self.packets_rerouted += 1
        return best

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
        input_alloc = self._input_alloc
        input_age = self._input_age
        outputs = self.outputs
        mode = self.mode
        wormhole = mode is SwitchingMode.WORMHOLE
        arbiter = self.arbiter
        # stream_fast_path is read per tick: tests clear it after
        # construction to reach the reference arbitration below.
        sole_grant = self.stream_fast_path and arbiter.sole_pick_is_grant
        if len(busy) == 1 and sole_grant and wormhole and not self._fault_degraded:
            # Solo tick (module docstring): the one busy input either
            # moves its front flit or ages; Phases A-C below reduce to
            # exactly this when nobody else holds a flit.
            ivc, queue = busy[0]
            okey = input_alloc[ivc]
            if okey is None:
                flit = queue._committed[0]
                if flit.seq != 0:
                    raise RuntimeError(
                        f"{self.name}:{ivc[0]}: body flit {flit!r} at front "
                        f"with no allocation (framing bug)"
                    )
                out_port = self._route(flit.dest)
                okey = (out_port, 0)
                if self._output_owner[okey] is not None or not outputs[okey].can_push():
                    input_age[ivc] += 1
                    return
                holder = self._output_lock[out_port] if self.lock_support else None
                if holder is not None and holder != flit.src:
                    # Counted for a *ready* head only, like Phase B.
                    self.lock_stalls_by_output[out_port] += 1
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
        # Phase A: route heads with no allocation yet.  Streaming inputs
        # (mid-packet, output owned) need no per-cycle routing or desire
        # bookkeeping at all — Phase B continues them straight off the
        # owner table, which is the single-VC body-flit fast path.
        heads: Dict[VcKey, Flit] = {}
        wants: Dict[VcKey, List[VcKey]] = {}  # output -> ready head inputs
        fault_degraded = self._fault_degraded
        dead_ports = self._dead_ports
        fault_blocked = False
        for ivc, queue in busy:
            if input_alloc[ivc] is not None:
                continue
            flit = queue._committed[0]
            if flit.seq != 0:
                raise RuntimeError(
                    f"{self.name}:{ivc[0]}: body flit {flit!r} at front "
                    f"with no allocation (framing bug)"
                )
            okey = (self._route(flit.dest), 0)
            if fault_degraded and okey[0] in dead_ports:
                fault_blocked = True
                continue  # downed output: the head waits for a heal
            if wormhole:
                # Wormhole heads depart whenever downstream has a slot —
                # no need to count buffered flits of the front packet.
                ready = outputs[okey].can_push()
            else:
                ready = mode.head_may_depart(
                    flits_buffered=self._flits_of_front_packet(queue, flit),
                    packet_flits=flit.count,
                    downstream_free=self._downstream_free(okey),
                )
            if ready:
                heads[ivc] = flit
                if okey in wants:
                    wants[okey].append(ivc)
                else:
                    wants[okey] = [ivc]

        # Phase B: per-output arbitration and transfer.
        inputs = self.inputs
        output_owner = self._output_owner
        output_lock = self._output_lock
        lock_support = self.lock_support
        sent_inputs: List[VcKey] = []
        lock_stalled_any = False
        for okey, out_queue in self._sorted_outputs:
            owner = output_owner[okey]
            if owner is not None:
                # Continue the in-flight packet (even on a downed output:
                # a packet that already won the port drains across the
                # cut, like phits in flight — only new grants are masked).
                # Nobody else may interleave, so no candidates and no
                # arbitration — just "flit buffered, room downstream".
                if inputs[owner]._committed and out_queue.can_push():
                    self._transfer(owner, okey, cycle)
                    sent_inputs.append(owner)
                continue
            contenders = wants.get(okey)
            if contenders is None:
                continue
            out_port = okey[0]
            holder = output_lock[out_port] if lock_support else None
            if sole_grant and holder is None and len(contenders) == 1:
                # Uncontested head: the winner is forced, so skip
                # candidate construction and the policy call; the grant
                # is still recorded so later round-robin ties break
                # exactly as if pick() had run.
                if out_queue.can_push():
                    ivc = contenders[0]
                    arbiter.note_sole_grant(out_port, self._ckey[ivc])
                    self._transfer(ivc, okey, cycle)
                    sent_inputs.append(ivc)
                continue
            candidates: List[Candidate] = []
            lock_stalled = False
            for ivc in contenders:
                flit = heads[ivc]
                if holder is not None and holder != flit.src:
                    lock_stalled = True
                    continue
                packet = flit.packet
                urgency = packet.user.get("urgency", 0) if packet else 0
                candidates.append(
                    Candidate(
                        port=self._ckey[ivc],
                        priority=flit.priority,
                        age=input_age[ivc],
                        urgency=urgency,
                    )
                )
            if lock_stalled:
                lock_stalled_any = True
                self.lock_stalls_by_output[out_port] += 1
            if not candidates or not out_queue.can_push():
                continue
            winner = arbiter.pick(out_port, candidates)
            ivc = self._ckey_to_ivc[winner.port]
            self._transfer(ivc, okey, cycle)
            sent_inputs.append(ivc)
        if lock_stalled_any:
            # At most one stall cycle per cycle, however many outputs
            # stalled (the per-output detail is in lock_stalls_by_output).
            self.lock_stall_cycles += 1
        if fault_blocked:
            self.fault_stall_cycles += 1

        # Phase C: age heads that waited.  Only inputs seen busy this
        # cycle need touching — an input can only drain through our own
        # transfers, which reset its age, so empty inputs are already 0.
        for ivc, queue in busy:
            if ivc in sent_inputs or not queue._committed:
                input_age[ivc] = 0
            else:
                input_age[ivc] += 1

    # ------------------------------------------------------------------ #
    # the cycle, multi-VC flavour
    # ------------------------------------------------------------------ #
    def _tick_vc(self, cycle: int, busy: List[tuple]) -> None:
        """VC allocation -> switch allocation -> transfer, for vcs >= 2.

        Differences from the single-VC fast path: a head flit must win a
        free *output VC* (held until its tail passes) before it can
        compete for the physical channel, and switch allocation sees one
        candidate per (input port, VC) — so flits of different packets
        interleave on a physical output, one flit per cycle, which is
        exactly what defeats head-of-line blocking.

        Body-flit fast path: an input VC holding an allocation skips VC
        allocation, adaptive scoring and routing entirely (its held
        grant *is* the decision), and an output port with a single
        requesting VC skips candidate construction and the arbiter call
        (the grant is still recorded; see Arbiter.note_sole_grant).
        """
        input_alloc = self._input_alloc
        input_head = self._input_head
        input_age = self._input_age
        output_owner = self._output_owner
        output_lock = self._output_lock
        lock_support = self.lock_support
        outputs = self.outputs
        mode = self.mode
        wormhole = mode is SwitchingMode.WORMHOLE

        # Phase V: VC allocation.  Head flits at the front of an input VC
        # with no allocation try to acquire their output VC; grants go in
        # sorted (port, vc) order, deterministically.  Lock admission
        # happens *here*: a head from a non-holding master is refused the
        # output VC while the port is locked — granting it would let the
        # blocked packet hoard the VC and stall the holder's own UNLOCK
        # forever.  Once granted, a stream always completes (a packet
        # admitted before the lock was set behaves as having entered the
        # locked path first, exactly like the single-VC switch).  The
        # admission window is one cycle wide: allocation (this phase)
        # reads the lock state *before* the transfers of the same cycle,
        # so a head VC-allocated in the very cycle a LOCK tail passes is
        # treated as having entered the locked path first — deterministic,
        # and pinned by tests/test_adaptive_routing.py.
        # Phase A folded in: every allocated input VC with a flit at the
        # front and room downstream becomes a switch-allocation request.
        wants: Dict[str, List[VcKey]] = {}  # physical out port -> input VCs
        lock_stalled_ports: List[str] = []
        adaptive = self.adaptive_table
        fault_degraded = self._fault_degraded
        dead_ports = self._dead_ports
        fault_blocked = False
        arbiter = self.arbiter
        sole_grant = self.stream_fast_path and arbiter.sole_pick_is_grant
        # Solo tick (module docstring): Phase V runs unchanged for the
        # one busy input VC — it is shared, not twinned — and a ready
        # flit then transfers at once; Phases B and C have nothing else
        # to do.
        solo = len(busy) == 1 and sole_grant and wormhole
        for ivc, queue in busy:
            flit = queue._committed[0]
            alloc = input_alloc[ivc]
            if alloc is None:
                if flit.seq != 0:
                    raise RuntimeError(
                        f"{self.name}:{ivc[0]}:vc{ivc[1]}: body flit {flit!r} "
                        f"at front with no allocation (framing bug)"
                    )
                if adaptive is not None:
                    cached = self._alloc_fail[ivc]
                    if (
                        cached is not None
                        and cached[0] == self._release_version
                        and cached[1] is flit
                    ):
                        continue  # still blocked: nothing freed since
                    okey = self._allocate_adaptive(
                        ivc, flit, lock_stalled_ports
                    )
                    if okey is None:
                        continue  # no admissible candidate; retry next cycle
                else:
                    out_port = self._route(flit.dest)
                    if fault_degraded and out_port in dead_ports:
                        fault_blocked = True
                        continue  # downed output: the head waits for a heal
                    if lock_support:
                        holder = output_lock[out_port]
                        if holder is not None and holder != flit.src:
                            lock_stalled_ports.append(out_port)
                            continue  # admission refused until UNLOCK passes
                    okey = (out_port, self._output_vc_for(ivc, out_port))
                    if output_owner[okey] is not None:
                        continue  # output VC busy; retry next cycle
                output_owner[okey] = ivc
                input_alloc[ivc] = okey
                input_head[ivc] = flit
            else:
                okey = alloc
            if flit.seq == 0 and not wormhole:
                # Head under SAF/VCT (fresh or retrying): gate on the
                # switching mode; wormhole heads just need a slot, below.
                ready = mode.head_may_depart(
                    flits_buffered=self._flits_of_front_packet(queue, flit),
                    packet_flits=flit.count,
                    downstream_free=self._downstream_free(okey),
                )
            else:
                # Streaming (or wormhole-head) request: flit buffered,
                # room downstream — the held grant is the whole decision.
                out_queue = outputs[okey]
                capacity = out_queue.capacity
                ready = capacity is None or out_queue._occ < capacity
            if ready:
                out_port = okey[0]
                if solo:
                    # The VC switch records a grant for every flit.
                    arbiter.note_sole_grant(out_port, self._ckey[ivc])
                    self._transfer(ivc, okey, cycle)
                    input_age[ivc] = 0
                    return
                if out_port in wants:
                    wants[out_port].append(ivc)
                else:
                    wants[out_port] = [ivc]
        if lock_stalled_ports:
            self.lock_stall_cycles += 1
            for out_port in set(lock_stalled_ports):
                self.lock_stalls_by_output[out_port] += 1
        if fault_blocked:
            self.fault_stall_cycles += 1
        if solo:
            input_age[busy[0][0]] += 1
            return

        # Phase B: switch allocation — one flit per physical output and
        # per physical input port per cycle, QoS-arbitrated across VCs.
        sent_ivcs: List[VcKey] = []
        used_input_ports: set = set()
        for out_port in self._physical_outputs:
            contenders = wants.get(out_port)
            if contenders is None:
                continue
            if sole_grant and len(contenders) == 1:
                ivc = contenders[0]
                if ivc[0] in used_input_ports:
                    continue  # input port already sent a flit this cycle
                arbiter.note_sole_grant(out_port, self._ckey[ivc])
                self._transfer(ivc, input_alloc[ivc], cycle)
                sent_ivcs.append(ivc)
                used_input_ports.add(ivc[0])
                continue
            candidates: List[Candidate] = []
            for ivc in contenders:
                if ivc[0] in used_input_ports:
                    continue  # input port already sent a flit this cycle
                head = input_head[ivc]
                assert head is not None
                packet = head.packet
                urgency = packet.user.get("urgency", 0) if packet else 0
                candidates.append(
                    Candidate(
                        port=self._ckey[ivc],
                        priority=head.priority,
                        age=input_age[ivc],
                        urgency=urgency,
                    )
                )
            if not candidates:
                continue
            winner = arbiter.pick(out_port, candidates)
            ivc = self._ckey_to_ivc[winner.port]
            self._transfer(ivc, input_alloc[ivc], cycle)
            sent_ivcs.append(ivc)
            used_input_ports.add(ivc[0])

        # Phase C: age input VCs that waited with flits buffered.  Only
        # the VCs seen non-empty in the busy scan need touching: an input
        # can only drain through our own transfers (committed items grow
        # at the kernel's post-tick commit), so an empty input's age is
        # already 0 — either it was empty last cycle too, or its last
        # flit left via a transfer that reset the age below.
        for ivc, _queue in busy:
            if ivc in sent_ivcs:
                input_age[ivc] = 0
            else:
                input_age[ivc] += 1

    def _transfer(self, ivc: VcKey, okey: VcKey, cycle: int) -> None:
        out_port, out_vc = okey
        flit = self.inputs[ivc].pop()
        flit.vc = out_vc  # retag for the next link's VC
        self.outputs[okey].push(flit)
        self.flits_forwarded += 1
        self.output_busy_cycles[out_port] += 1
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
    # state capture
    # ------------------------------------------------------------------ #
    # Everything the tick and fault paths mutate.  Not captured:
    # wiring (inputs/outputs, sorted lists, candidate-key maps, neighbour
    # geometry), _vc_cache (pure geometry), _healthy_adaptive
    # (pristine build table).  adaptive_table IS captured — fault epochs
    # swap it for a degraded copy.
    _snapshot_fields = (
        "_input_alloc",
        "_input_head",
        "_input_age",
        "_output_owner",
        "_output_lock",
        "_alloc_fail",
        "_release_version",
        "_dead_ports",
        "_fault_degraded",
        "adaptive_table",
        "flits_forwarded",
        "packets_forwarded",
        "packets_adaptive",
        "packets_escape",
        "lock_stall_cycles",
        "lock_stalls_by_output",
        "output_busy_cycles",
        "faults_hit",
        "packets_rerouted",
        "fault_stall_cycles",
    )

    def _snapshot_state(self) -> dict:
        state = super()._snapshot_state()
        state["arbiter"] = self.arbiter.snapshot()
        return state

    def _restore_state(self, state) -> None:
        super()._restore_state(state)
        self.arbiter.restore(state["arbiter"])

    # ------------------------------------------------------------------ #
    # introspection (tests / benches)
    # ------------------------------------------------------------------ #
    def locked_outputs(self) -> Dict[str, int]:
        return {
            port: holder
            for port, holder in self._output_lock.items()
            if holder is not None
        }

    def utilization(self, cycles: int) -> Dict[str, float]:
        if cycles <= 0:
            return {port: 0.0 for port in self._physical_outputs}
        return {
            port: busy / cycles for port, busy in self.output_busy_cycles.items()
        }
