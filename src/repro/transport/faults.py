"""Fault injection and resilience: schedules, degraded routing, detection.

A :class:`FaultSchedule` is a deterministic, cycle-stamped list of
link-down/link-up and router-port-down/up events, validated against the
topology at build time (named errors, see below) and attachable through
``SocBuilder(faults=...)``.  Faults are simulator state like everything
else: the :class:`FaultInjector` is a regular
:class:`~repro.sim.component.Component` registered *before* the plane's
routers, so fault edges apply at the exact scheduled cycle, before any
router ticks, identically under the strict reference kernel and the
event-wheel kernel (its :meth:`~FaultInjector.next_event_cycle` is the
next scheduled edge, so the wheel can never skip over one).

Fault semantics: **transmit-side cut with drain.**  A downed link (or
router output port) masks the *upstream* router's output for new
allocations — no fresh packet is ever granted the port — while traffic
already committed to it drains: phits handed to the physical link (its
TX staging and shift/pipe/sync stages) complete delivery, and a packet
whose head already won the output streams its remaining flits across
the cut (a wormhole cannot be retracted mid-flight in this model; the
alternative would strand flits with no retransmission layer to recover
them).  Nothing is dropped and no credit leaks, by construction; the
phits in flight at each cut are recorded in the
``<plane>.faults.phits_in_flight_at_cut`` counter so the accounting is
loud.  On a transparent (ideal-wire) link
the "link" *is* the downstream input buffer, so masking the upstream
output port is exactly the cut.  Injection-side NIU links are not
faultable targets (fault the ``local:`` ejection port of an endpoint to
model an unreachable device).

Degraded-mode routing: on every fault epoch the injector recomputes the
adaptive plane's candidate/escape tables on the *surviving* directed
graph (:func:`~repro.transport.routing.compute_degraded_tables`, the
builder that made the healthy tables, now with this epoch's links and
ports down) and pushes them to the routers — a genuine reroute, not
just dead-candidate filtering, so traffic detours around a failure even
when every healthy-minimal neighbour is dead.  Deterministic planes
(table/XY/DOR) keep their tables: a fault on a deterministic route
makes the affected destinations unroutable, which the partition
watchdog (below) detects.

Partition detection: whenever any fault is active the injector arms a
watchdog deadline (``partition_budget`` cycles past the last event that
could still revive a target).  At the deadline it scans for provably
stuck traffic — an input VC whose held output allocation points at a
permanently dead port, or any buffered/pending packet whose destination
is unroutable from where it sits — and raises
:class:`FabricPartitionError` naming the first few.  A degraded but
routable fabric re-arms and keeps watching; a healthy fabric disarms.
The fabric therefore never wedges silently on a permanent fault.

Known honest limitation: a LOCK/UNLOCK pair whose escape route changes
*between* the two packets (the epoch flipped mid-sequence) can strand a
port lock; the resulting stall is caught by the watchdog only if it
makes a destination unroutable, otherwise by ``run_until``'s cycle
budget.  Fault schedules and lock traffic should not be mixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.sim.component import Component
from repro.sim.kernel import SimulationError
from repro.sim.snapshot import Snapshottable
from repro.transport.routing import (
    DirectedEdge,
    PortKey,
    compute_degraded_tables,
    port_local,
    port_to,
    surviving_distances,
)
from repro.transport.topology import RouterId, Topology, router_sort_key


class FaultConfigError(ValueError):
    """Base class for build-time fault-schedule validation failures."""


class UnknownFaultTargetError(FaultConfigError):
    """A fault event references a link, router or port the topology lacks."""


class OverlappingFaultWindowError(FaultConfigError):
    """Down/up windows on one target overlap, repeat or never opened."""


class NoSurvivingPathError(FaultConfigError):
    """The schedule leaves some endpoint pair with no surviving path.

    Raised at build time when any moment of the schedule disconnects two
    endpoints on the router graph itself (so not even a recomputed
    escape path survives).  Pass ``allow_partition=True`` to build such
    a schedule anyway — the runtime watchdog then reports the partition
    as a :class:`FabricPartitionError` when traffic actually hits it.
    """


class FabricPartitionError(SimulationError):
    """Traffic is provably stuck behind a permanent fault (see module doc)."""


@dataclass(frozen=True)
class FaultEvent:
    """One cycle-stamped fault edge.

    ``kind`` is ``"link"`` (``target`` = canonically ordered router
    pair; both directions go down/up together) or ``"port"``
    (``target`` = ``(router, output port name)`` — a ``to:<neighbor>``
    inter-router output or a ``local:<endpoint>`` ejection port).
    """

    cycle: int
    kind: str
    target: tuple
    down: bool


class FaultSchedule:
    """Deterministic fault timeline, built fluently and validated at build.

    ``partition_budget`` bounds how long after the last possibly-reviving
    event the watchdog waits before scanning for stuck traffic;
    ``allow_partition`` downgrades the build-time
    :class:`NoSurvivingPathError` so runtime partition detection can be
    exercised deliberately.
    """

    def __init__(
        self,
        partition_budget: int = 512,
        allow_partition: bool = False,
    ) -> None:
        if partition_budget < 1:
            raise FaultConfigError("partition_budget must be >= 1")
        self.partition_budget = partition_budget
        self.allow_partition = allow_partition
        self._events: List[FaultEvent] = []

    # ------------------------------------------------------------------ #
    # fluent builders
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_cycle(cycle: int) -> int:
        if cycle < 0:
            raise FaultConfigError(f"fault cycle must be >= 0, got {cycle}")
        return cycle

    @staticmethod
    def _link_target(a: RouterId, b: RouterId) -> tuple:
        return tuple(sorted((a, b), key=router_sort_key))

    def link_down(self, cycle: int, a: RouterId, b: RouterId) -> "FaultSchedule":
        """Both directions of the ``a``–``b`` link go down at ``cycle``."""
        self._events.append(
            FaultEvent(self._check_cycle(cycle), "link", self._link_target(a, b), True)
        )
        return self

    def link_up(self, cycle: int, a: RouterId, b: RouterId) -> "FaultSchedule":
        self._events.append(
            FaultEvent(self._check_cycle(cycle), "link", self._link_target(a, b), False)
        )
        return self

    def port_down(self, cycle: int, router: RouterId, port: str) -> "FaultSchedule":
        """One router output port (``to:<n>`` or ``local:<ep>``) goes down."""
        self._events.append(
            FaultEvent(self._check_cycle(cycle), "port", (router, port), True)
        )
        return self

    def port_up(self, cycle: int, router: RouterId, port: str) -> "FaultSchedule":
        self._events.append(
            FaultEvent(self._check_cycle(cycle), "port", (router, port), False)
        )
        return self

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> List[FaultEvent]:
        """Events ordered by cycle (stable: insertion order within one)."""
        return sorted(self._events, key=lambda ev: ev.cycle)

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def extended(self, events: Sequence[FaultEvent]) -> "FaultSchedule":
        """A copy with ``events`` appended (keeps budget/allow flags)."""
        merged = FaultSchedule(
            partition_budget=self.partition_budget,
            allow_partition=self.allow_partition,
        )
        merged._events = list(self._events) + list(events)
        return merged

    # ------------------------------------------------------------------ #
    # build-time validation
    # ------------------------------------------------------------------ #
    def validate(self, topology: Topology) -> None:
        """Raise a named :class:`FaultConfigError` subclass on a bad schedule.

        Checks, in order: every event's target exists in ``topology``
        (:class:`UnknownFaultTargetError`); per-target down/up windows
        are well-formed — no double-down, no up-without-down, no
        zero-length window (:class:`OverlappingFaultWindowError`); and no
        moment of the replayed schedule disconnects an endpoint pair on
        the surviving graph (:class:`NoSurvivingPathError`, unless
        ``allow_partition``).
        """
        for ev in self._events:
            if ev.kind == "link":
                a, b = ev.target
                if not topology.has_link(a, b):
                    raise UnknownFaultTargetError(
                        f"fault schedule: no link {a!r} -- {b!r} in "
                        f"topology {topology.name!r}"
                    )
            else:
                router, port = ev.target
                if router not in topology.routers:
                    raise UnknownFaultTargetError(
                        f"fault schedule: unknown router {router!r} in "
                        f"topology {topology.name!r}"
                    )
                valid = {port_to(n) for n in topology.neighbors(router)}
                valid.update(
                    port_local(ep) for ep in topology.endpoints_at(router)
                )
                if port not in valid:
                    raise UnknownFaultTargetError(
                        f"fault schedule: router {router!r} has no output "
                        f"port {port!r} (valid: {sorted(valid)})"
                    )
        # Window well-formedness: replay per target.
        state: Dict[Tuple[str, tuple], Tuple[bool, int]] = {}
        for ev in self.events:
            key = (ev.kind, ev.target)
            down, since = state.get(key, (False, -1))
            if ev.down:
                if down:
                    raise OverlappingFaultWindowError(
                        f"fault schedule: {ev.kind} {ev.target!r} taken down "
                        f"at cycle {ev.cycle} but already down since cycle "
                        f"{since} (overlapping down-windows)"
                    )
                state[key] = (True, ev.cycle)
            else:
                if not down:
                    raise OverlappingFaultWindowError(
                        f"fault schedule: {ev.kind} {ev.target!r} brought up "
                        f"at cycle {ev.cycle} but was not down"
                    )
                if ev.cycle <= since:
                    raise OverlappingFaultWindowError(
                        f"fault schedule: {ev.kind} {ev.target!r} window "
                        f"[{since}, {ev.cycle}) is empty — up must come "
                        f"strictly after down"
                    )
                state[key] = (False, ev.cycle)
        # Connectivity: no moment of the schedule may strand an endpoint
        # pair on the graph itself (adaptive recompute can route around
        # anything short of a true partition).
        if self.allow_partition:
            return
        down_links: Set[DirectedEdge] = set()
        down_ports: Set[PortKey] = set()
        events = self.events
        index = 0
        while index < len(events):
            cycle = events[index].cycle
            while index < len(events) and events[index].cycle == cycle:
                _apply_event(events[index], down_links, down_ports)
                index += 1
            stranded = unreachable_endpoint_pairs(topology, down_links, down_ports)
            if stranded:
                src, dst = stranded[0]
                raise NoSurvivingPathError(
                    f"fault schedule: from cycle {cycle} endpoint {src} has "
                    f"no surviving path to endpoint {dst} (plus "
                    f"{len(stranded) - 1} more stranded pairs) — not even an "
                    f"escape route survives; pass allow_partition=True to "
                    f"build anyway and rely on runtime partition detection"
                )


def _apply_event(
    ev: FaultEvent,
    down_links: Set[DirectedEdge],
    down_ports: Set[PortKey],
) -> None:
    """Fold one event into the down-state sets (both link directions)."""
    if ev.kind == "link":
        a, b = ev.target
        for edge in ((a, b), (b, a)):
            if ev.down:
                down_links.add(edge)
            else:
                down_links.discard(edge)
    else:
        if ev.down:
            down_ports.add(ev.target)
        else:
            down_ports.discard(ev.target)


def unreachable_endpoint_pairs(
    topology: Topology,
    down_links: Set[DirectedEdge],
    down_ports: Set[PortKey],
) -> List[Tuple[int, int]]:
    """Ordered endpoint pairs ``(src, dst)`` with no surviving path."""
    _, distances_to = surviving_distances(topology, down_links, down_ports)
    stranded: List[Tuple[int, int]] = []
    endpoints = topology.endpoints
    for dst in endpoints:
        home = topology.router_of(dst)
        if (home, port_local(dst)) in down_ports:
            stranded.extend((src, dst) for src in endpoints if src != dst)
            continue
        dist = distances_to(home)
        for src in endpoints:
            if src != dst and topology.router_of(src) not in dist:
                stranded.append((src, dst))
    return stranded


# ---------------------------------------------------------------------- #
# runtime: one injector per plane
# ---------------------------------------------------------------------- #
class FaultInjector(Component, Snapshottable):
    """Applies a plane's fault schedule and watches for partitions.

    Registered by :class:`~repro.transport.network.Network` *before* the
    plane's routers, so an epoch's new fault state is visible to every
    router tick of the same cycle under both kernels (registration order
    is tick order).  ``next_event_cycle`` is the next scheduled fault
    edge or watchdog deadline, which is what lets the event-wheel kernel
    skip quiet stretches without ever skipping over a fault.
    """

    def __init__(self, name: str, network, schedule: FaultSchedule) -> None:
        super().__init__(name)
        self.network = network
        self.schedule = schedule
        self._events = schedule.events
        self._idx = 0
        self.down_links: Set[DirectedEdge] = set()
        self.down_ports: Set[PortKey] = set()
        #: Bumped once per applied event batch; routers key their blocked-
        #: head rescans off the matching _release_version bump.
        self.fault_epoch = 0
        #: ``(cycle, event)`` log of applied events (tests/introspection).
        self.applied: List[Tuple[int, FaultEvent]] = []
        self.budget = schedule.partition_budget
        self._deadline: Optional[int] = None
        self._unroutable: Dict[RouterId, FrozenSet[int]] = {}
        #: Watchdog parked: the plane is degraded but fully drained, so
        #: nothing can become stuck until new traffic is injected.  The
        #: injection-side wake hooks (below) re-arm the deadline then.
        self._parked = False
        self._injection_wakes_registered = False

    # -- state capture ----------------------------------------------------
    _snapshot_fields = (
        "_idx",
        "down_links",
        "down_ports",
        "fault_epoch",
        "applied",
        "_deadline",
        "_unroutable",
        "_parked",
    )

    def _snapshot_state(self) -> dict:
        state = super()._snapshot_state()
        state["injection_wakes"] = self._injection_wakes_registered
        return state

    def _restore_state(self, state) -> None:
        super()._restore_state(state)
        # The wake hooks are *registrations*, not a flag: a fresh build
        # has none, so replay the arming instead of restoring the bool.
        if state["injection_wakes"] and not self._injection_wakes_registered:
            self._ensure_injection_wakes()

    # -- runtime schedule extension (design-space sweeps) ------------------
    def extend_schedule(self, events: Sequence[FaultEvent]) -> None:
        """Merge new fault events into the not-yet-applied suffix.

        This is how a forked what-if run imposes an alternative fault
        future on a restored checkpoint: events already applied are
        history and stay untouched; the new events sort into the pending
        tail by cycle.  Events dated before the current cycle are
        rejected (:class:`FaultConfigError`) — they could never have
        been applied on a cold run either.
        """
        if not events:
            return
        now = self._simulator.cycle if self._simulator is not None else 0
        for ev in events:
            if ev.cycle < now:
                raise FaultConfigError(
                    f"{self.name}: cannot extend the schedule with an "
                    f"event at past cycle {ev.cycle} (now {now})"
                )
        self.schedule = self.schedule.extended(events)
        self.schedule.validate(self.network.topology)
        suffix = self._events[self._idx :] + list(events)
        suffix.sort(key=lambda ev: ev.cycle)
        self._events = self._events[: self._idx] + suffix
        self._parked = False
        self.wake()

    # -- activity contract ------------------------------------------------
    def next_event_cycle(self, now: int):
        nxt = self._events[self._idx].cycle if self._idx < len(self._events) else None
        if self._deadline is not None and (nxt is None or self._deadline < nxt):
            nxt = self._deadline
        if nxt is None:
            return None
        return nxt if nxt > now else now

    # -- the cycle --------------------------------------------------------
    def tick(self, cycle: int) -> None:
        events = self._events
        applied = False
        while self._idx < len(events) and events[self._idx].cycle <= cycle:
            self._apply(cycle, events[self._idx])
            self._idx += 1
            applied = True
        if applied:
            self._refresh(cycle)
        elif self._parked:
            # Woken from the injection side while parked: if traffic is
            # actually visible, it could wedge behind the standing fault,
            # so the watchdog re-arms from scratch.  (Spurious wakes with
            # a still-drained plane stay parked.)
            if not self._plane_drained():
                self._parked = False
                self._deadline = cycle + self.budget
            return
        if self._deadline is not None and cycle >= self._deadline:
            self._check_partition(cycle)

    def _apply(self, cycle: int, ev: FaultEvent) -> None:
        if ev.kind == "link" and ev.down:
            self._account_cut(ev.target)
        elif ev.kind == "port" and ev.down and ev.target[1].startswith("to:"):
            router, port = ev.target
            neighbor = self.network.routers[router]._out_neighbor.get(port)
            if neighbor is not None:
                self._account_cut((router, neighbor), directed=True)
        _apply_event(ev, self.down_links, self.down_ports)
        self.applied.append((cycle, ev))

    def _account_cut(self, target: tuple, directed: bool = False) -> None:
        """Record phits in flight on a freshly downed link (they drain)."""
        a, b = target
        edges = ((a, b),) if directed else ((a, b), (b, a))
        in_flight = 0
        for edge in edges:
            link = self.network._edge_links.get(edge)
            if link is None:
                continue  # transparent wire: nothing is ever in flight
            in_flight += link.in_flight
            in_flight += sum(
                q.occupancy for q in self.network._edge_feeds.get(edge, ())
            )
        self.simulator.stats.counter(
            f"{self.network.name}.faults.phits_in_flight_at_cut"
        ).inc(in_flight)

    def _refresh(self, cycle: int) -> None:
        """Recompute routes/routability and push the new epoch to routers."""
        net = self.network
        degraded = bool(self.down_links or self.down_ports)
        dead_by_router: Dict[RouterId, FrozenSet[str]] = {}
        if degraded:
            for a, b in self.down_links:
                dead_by_router.setdefault(a, set()).add(port_to(b))  # type: ignore[attr-defined]
            for router, port in self.down_ports:
                dead_by_router.setdefault(router, set()).add(port)  # type: ignore[attr-defined]
            dead_by_router = {
                r: frozenset(ports) for r, ports in dead_by_router.items()
            }
        if net.routing == "adaptive":
            if degraded:
                tables, unroutable = compute_degraded_tables(
                    net.topology,
                    self.down_links,
                    self.down_ports,
                    healthy_escape={
                        r: t.escape for r, t in net._adaptive_tables.items()
                    },
                )
            else:
                tables, unroutable = net._adaptive_tables, {}
        else:
            tables = None
            unroutable = self._trace_unroutable(dead_by_router) if degraded else {}
        self._unroutable = {
            r: frozenset(eps) for r, eps in unroutable.items() if eps
        }
        self.fault_epoch += 1
        empty: FrozenSet[str] = frozenset()
        for rid, router in net.routers.items():
            router.apply_fault_state(
                dead_by_router.get(rid, empty),
                degraded,
                tables[rid] if tables is not None else None,
            )
        self._parked = False
        if degraded:
            pending_up = [
                ev.cycle for ev in self._events[self._idx :] if not ev.down
            ]
            base = max(pending_up) if pending_up else cycle
            self._deadline = max(cycle, base) + self.budget
        else:
            self._deadline = None

    def _trace_unroutable(
        self, dead_by_router: Dict[RouterId, FrozenSet[str]]
    ) -> Dict[RouterId, Set[int]]:
        """Deterministic planes: follow each table path across dead ports."""
        net = self.network
        topology = net.topology
        unroutable: Dict[RouterId, Set[int]] = {}
        for endpoint in topology.endpoints:
            reachable: Dict[RouterId, bool] = {}
            for start in topology.routers:
                chain: List[RouterId] = []
                node = start
                verdict: Optional[bool] = None
                while verdict is None:
                    known = reachable.get(node)
                    if known is not None:
                        verdict = known
                        break
                    chain.append(node)
                    router = net.routers[node]
                    port = router.table[endpoint]
                    if port in dead_by_router.get(node, ()):
                        verdict = False
                    elif port.startswith("local:"):
                        verdict = True
                    else:
                        node = router._out_neighbor[port]
                for visited in chain:
                    reachable[visited] = verdict
                if not verdict:
                    unroutable.setdefault(start, set()).add(endpoint)
        return unroutable

    # -- partition watchdog ----------------------------------------------
    def _check_partition(self, cycle: int) -> None:
        stuck = self._scan_stuck()
        if stuck:
            shown = "; ".join(stuck[:4])
            more = f" (+{len(stuck) - 4} more)" if len(stuck) > 4 else ""
            raise FabricPartitionError(
                f"{self.name}: traffic stuck behind a permanent fault at "
                f"cycle {cycle} (watchdog budget {self.budget}): {shown}{more}"
            )
        # Still degraded, nothing provably stuck yet.  If every event has
        # been applied (no heal can change routability) and the plane has
        # fully drained, nothing can *become* stuck until new traffic is
        # injected — park instead of re-arming every budget cycles, so an
        # idle degraded fabric skips like a healthy one.  The injection
        # wake hooks re-arm the watchdog when traffic reappears (tick).
        if self._idx >= len(self._events) and self._plane_drained():
            self._ensure_injection_wakes()
            self._parked = True
            self._deadline = None
        else:
            self._deadline = cycle + self.budget

    def _plane_drained(self) -> bool:
        """True when no traffic exists anywhere in this plane.

        Checked only at watchdog deadlines and parked-wake ticks, so the
        full sweep (injection ports, router input VCs, link pipes) stays
        off the per-cycle path.  Occupancy reads include staged items, so
        a push from earlier this cycle already counts.
        """
        net = self.network
        for port in net.injection_ports.values():
            if port.packet_queue._occ or any(port._pending):
                return False
        for router in net.routers.values():
            for _ivc, queue in router._sorted_inputs:
                if queue._occ:
                    return False
        for link in net._edge_links.values():
            if link is not None and link.in_flight:
                return False
        for feeds in net._edge_feeds.values():
            for queue in feeds:
                if queue.occupancy:
                    return False
        return True

    def _ensure_injection_wakes(self) -> None:
        """Arm the park/re-arm path: new injection traffic wakes us.

        Registered lazily at first park so healthy (or never-drained)
        runs pay nothing; ``wake_on_push`` fires when packets *commit*
        into an injection port's queue, which under both kernels is the
        cycle before this injector could have observed them anyway.
        """
        if self._injection_wakes_registered:
            return
        self._injection_wakes_registered = True
        for port in self.network.injection_ports.values():
            port.packet_queue.wake_on_push(self)

    def _scan_stuck(self) -> List[str]:
        """Provably stuck traffic, in canonical order (deterministic)."""
        net = self.network
        stuck: List[str] = []
        unroutable = self._unroutable
        for rid in net.topology.routers:
            router = net.routers[rid]
            bad = unroutable.get(rid)
            if not bad:
                continue
            for ivc, queue in router._sorted_inputs:
                committed = queue._committed
                if not committed:
                    continue
                flit = committed[0]
                # In-flight streams always drain (allocations held across
                # a cut keep streaming); only an unallocated head whose
                # destination is unroutable from here is provably stuck.
                if router._input_alloc[ivc] is None and flit.dest in bad:
                    stuck.append(
                        f"packet {flit.packet_id} at router {rid!r} bound "
                        f"for unreachable endpoint {flit.dest}"
                    )
        for endpoint in net.topology.endpoints:
            home = net.topology.router_of(endpoint)
            bad = unroutable.get(home)
            if not bad:
                continue
            port = net.injection_ports[endpoint]
            for pending in port._pending:
                if pending and pending[0].dest in bad:
                    stuck.append(
                        f"injection port {endpoint}: staged packet "
                        f"{pending[0].packet_id} bound for unreachable "
                        f"endpoint {pending[0].dest}"
                    )
                    break
            for packet in port.packet_queue._committed:
                if packet.route_destination in bad:
                    stuck.append(
                        f"injection port {endpoint}: queued packet bound "
                        f"for unreachable endpoint {packet.route_destination}"
                    )
                    break
        return stuck
