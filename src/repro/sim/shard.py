"""Sharded fabric: conservative parallel simulation across processes.

This module holds the build-time half of the sharded fabric: the shard
plan (which router lives in which shard), the boundary link components
that stand in for a :class:`~repro.phys.link.PhysicalLink` whose two
ends live in different shards, and the ownership bookkeeping the
parallel driver (:mod:`repro.sweep.parallel`) uses to mute foreign
state and merge per-shard fingerprints.

The shard / lookahead contract
------------------------------

A *shard* is a subset of a plane's routers plus everything reachable
from them without crossing an inter-router link: the routers' queues,
the endpoint links, injection/ejection ports, NIUs, protocol masters
and memories attached to those routers.  Two shards interact **only**
through the directed inter-router links the plan cuts, and every cut
link must be non-transparent (``LinkSpec.transparent()`` false): the
link's pipeline is precisely the lookahead that makes conservative
parallel simulation possible.

Each cut directed link becomes a :class:`ShardLinkTx` (source shard —
owns the feed queues, replicates the serializing/pipelined timing of
:class:`~repro.phys.link.VcPhysicalLink`, holds the per-VC credit
counters) and a :class:`ShardLinkRx` (destination shard — owns the
delivery queues, pushes arriving flits at their arrival cycle, and
observes the destination router's pops to return credits).  The two
halves exchange *envelopes*:

- a flit envelope ``(arrival_cycle, vc, seq, flit)`` is emitted when
  the last phit of a flit leaves the wires at producer edge ``t``; its
  arrival cycle is ``t + 1 + pipeline_latency``, exactly the cycle a
  ``PhysicalLink`` would deliver;
- a credit envelope ``(pop_cycle, vc, count)`` is emitted when the
  receiver observes the destination router draining its delivery
  queue; the sender may reuse the credit from cycle
  ``pop_cycle + credit_return_latency`` on.

The **lookahead window** of a cut link is therefore::

    W_link = min(1 + pipeline_latency, credit_return_latency)

and the fabric-wide safe window ``W = min over cut links of W_link``.
The coordinator advances the run in rounds: with every shard at
barrier ``T`` and reporting its next local event cycle ``E_k``, the
next bound is ``B = max(T, min_k E_k) + W``.  Any envelope a shard can
emit during ``[T, B)`` originates at an event cycle ``>= min_k E_k``,
so its effect matures at or after ``B`` — delivering envelopes only at
barriers is exact, not approximate.  Batches are merged at shard
ingress in a fixed canonical order (sorted by target link name, then
``(arrival_cycle, seq)``), so the result is byte-identical regardless
of worker scheduling: running the same sharded build in one process
(boundary halves hand envelopes to each other directly) or across N
worker processes produces the same fingerprint.

What sharding changes, honestly: a cut link has its *own* timing
model.  The stock in-process link observes downstream pops in the same
cycle they happen (a zero-lookahead feedback loop no windowed scheme
can reproduce), while the boundary pair runs an explicit credit loop
with ``credit_return_latency >= 1``.  A sharded build is therefore a
(deterministic, self-consistent) fabric of its own — compare sharded
runs against the *same sharded build* run single-process, which is
what the determinism tests pin.

Out of scope for v1, rejected with :class:`ShardConfigError` at build
time: fault schedules, the strict reference kernel, enabled tracers,
transparent cut links, and snapshot/checkpoint capture of sharded
builds.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, List, Mapping, Optional, Tuple

import repro.core.transaction as _txn_mod
import repro.transport.flit as _flit_mod
from repro.sim.component import Component
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.queue import SimQueue
from repro.sim.snapshot import SerialCounter, Snapshottable
from repro.transport.topology import Topology, router_sort_key


class ShardConfigError(SimulationError):
    """A build configuration cannot be sharded (named build-time error)."""


# --------------------------------------------------------------------- #
# shard plans
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardPlan:
    """Partition of a topology's routers into ``n_shards`` shards.

    ``assignment`` maps every router id to its shard index in
    ``range(n_shards)``.  ``credit_return_latency`` overrides the credit
    loop of every boundary link (default ``1 + pipeline_latency``, which
    makes the window symmetric in both directions).
    """

    assignment: Mapping[Hashable, int]
    n_shards: int
    credit_return_latency: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))
        if self.n_shards < 2:
            raise ShardConfigError(
                f"a shard plan needs at least 2 shards, got {self.n_shards}"
            )
        if self.credit_return_latency is not None and self.credit_return_latency < 1:
            raise ShardConfigError(
                "credit_return_latency must be >= 1 (a same-cycle credit "
                "loop has zero lookahead and cannot be windowed)"
            )

    def shard_of(self, router_id: Hashable) -> int:
        try:
            return self.assignment[router_id]
        except KeyError:
            raise ShardConfigError(
                f"shard plan does not assign router {router_id!r}"
            ) from None

    def validate(self, topology: Topology) -> None:
        routers = set(topology.routers)
        assigned = set(self.assignment)
        missing = routers - assigned
        stray = assigned - routers
        if missing or stray:
            raise ShardConfigError(
                f"shard plan does not partition the topology: missing "
                f"routers {sorted(missing, key=router_sort_key)!r}, "
                f"unknown routers {sorted(stray, key=router_sort_key)!r}"
            )
        populated = set(self.assignment.values())
        if not populated <= set(range(self.n_shards)):
            raise ShardConfigError(
                f"shard indices must be in range({self.n_shards}), got "
                f"{sorted(populated)!r}"
            )
        empty = set(range(self.n_shards)) - populated
        if empty:
            raise ShardConfigError(
                f"shard plan leaves shards {sorted(empty)!r} empty"
            )

    def cut_edges(self, topology: Topology) -> List[Tuple[Hashable, Hashable]]:
        """Directed inter-router edges whose ends live in different shards."""
        cuts: List[Tuple[Hashable, Hashable]] = []
        for a, b in topology.links:
            if self.shard_of(a) != self.shard_of(b):
                cuts.append((a, b))
                cuts.append((b, a))
        return cuts


def plan_shards(topology: Topology, n_shards: int) -> ShardPlan:
    """Partition ``topology`` into ``n_shards`` balanced contiguous stripes.

    Routers are split in their canonical sort order into stripes of
    near-equal size.  On meshes and tori (ids ``(x, y)``) the canonical
    order walks column-major, so stripes are column bands — each cut is
    one mesh column of links, which is the min-cut-ish partition for
    the stripe count.  On arbitrary graphs the stripes are merely
    balanced; pass an explicit :class:`ShardPlan` for a better cut.
    """
    routers = topology.routers  # already canonically sorted
    if n_shards < 2:
        raise ShardConfigError(
            f"sharding needs at least 2 shards, got {n_shards}"
        )
    if n_shards > len(routers):
        raise ShardConfigError(
            f"cannot split {len(routers)} routers into {n_shards} shards"
        )
    assignment: Dict[Hashable, int] = {}
    base, extra = divmod(len(routers), n_shards)
    cursor = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        for router_id in routers[cursor : cursor + size]:
            assignment[router_id] = shard
        cursor += size
    return ShardPlan(assignment=assignment, n_shards=n_shards)


# --------------------------------------------------------------------- #
# boundary link halves
# --------------------------------------------------------------------- #
class ShardLinkTx(Component, Snapshottable):
    """Transmit half of a cut inter-router link (source shard).

    Mirrors :class:`~repro.phys.link.VcPhysicalLink`'s producer side —
    one physical channel serializing ``serialization`` phits per flit,
    round-robin over VCs with a flit staged and a credit in hand — but
    instead of pushing into a same-process delivery queue it emits flit
    envelopes ``(arrival_cycle, vc, seq, flit)``.  In-process (the
    single-process run of a sharded build) the envelopes go straight to
    the peer :class:`ShardLinkRx`; in a worker they accumulate in
    ``outbox`` for the coordinator to route at the next barrier.

    Credits are plain per-VC integers topped up by credit envelopes
    ``(pop_cycle, vc, count)`` that mature at
    ``pop_cycle + credit_return_latency``.
    """

    _snapshot_fields = (
        "_shifting",
        "_next_vc",
        "_credits",
        "_pending_credits",
        "_seq",
        "outbox",
        "flits_carried",
        "phits_carried",
        "flits_per_vc",
        "envelopes_sent",
    )

    def __init__(
        self,
        name: str,
        feeds: List[SimQueue],
        delivery_capacities: List[int],
        flit_bits: int,
        phit_bits: int,
        pipeline_latency: int,
        credit_return_latency: int,
    ) -> None:
        super().__init__(name)
        from repro.phys.link import phits_per_flit

        if credit_return_latency < 1:
            raise ShardConfigError(
                f"{name}: credit_return_latency must be >= 1"
            )
        self.feeds = list(feeds)
        self.vcs = len(self.feeds)
        self.flit_bits = flit_bits
        self.phit_bits = phit_bits
        self.pipeline_latency = pipeline_latency
        self.credit_return_latency = credit_return_latency
        self.serialization = phits_per_flit(flit_bits, phit_bits)
        self._credits = list(delivery_capacities)
        self.capacities = list(delivery_capacities)
        self._pending_credits: Deque[Tuple[int, int, int]] = deque()  # (due, vc, n)
        self._shifting: Optional[Tuple[int, object, int]] = None  # (vc, flit, left)
        self._next_vc = 0
        self._seq = 0
        self.outbox: List[Tuple[int, int, int, object]] = []
        self._peer_rx: Optional["ShardLinkRx"] = None
        self.flits_carried = 0
        self.phits_carried = 0
        self.flits_per_vc = [0] * self.vcs
        self.envelopes_sent = 0
        for queue in self.feeds:
            queue.wake_on_push(self)

    # forward lookahead of this link (see module docstring)
    @property
    def window(self) -> int:
        return min(1 + self.pipeline_latency, self.credit_return_latency)

    def set_remote(self) -> None:
        """Worker mode: envelopes stay in ``outbox`` for the coordinator."""
        self._peer_rx = None

    def bind_peer(self, rx: "ShardLinkRx") -> None:
        """In-process mode: hand envelopes straight to the receive half."""
        self._peer_rx = rx

    def receive_credits(self, envelopes: List[Tuple[int, int, int]]) -> None:
        """Accept credit envelopes ``(pop_cycle, vc, count)`` (any time)."""
        latency = self.credit_return_latency
        for pop_cycle, vc, count in envelopes:
            self._pending_credits.append((pop_cycle + latency, vc, count))
        if envelopes:
            self.wake()

    @property
    def in_flight(self) -> int:
        return 1 if self._shifting is not None else 0

    def idle(self) -> bool:
        """Nothing on the wires and nothing staged (drain check)."""
        return self._shifting is None and not any(self.feeds) and not self.outbox

    def next_event_cycle(self, now: int):
        if self._shifting is not None:
            return now
        credits = self._credits
        for vc, queue in enumerate(self.feeds):
            if queue._committed and credits[vc] > 0:
                return now
        if self._pending_credits:
            due = self._pending_credits[0][0]
            return due if due > now else now
        return None  # idle, or credit-starved: receive_credits() wakes us

    def tick(self, cycle: int) -> None:
        # Mature credit returns that came due.
        pending = self._pending_credits
        credits = self._credits
        while pending and pending[0][0] <= cycle:
            __, vc, count = pending.popleft()
            credits[vc] += count
            if credits[vc] > self.capacities[vc]:
                raise RuntimeError(
                    f"{self.name}: credit overflow on VC {vc} "
                    f"({credits[vc]} > {self.capacities[vc]})"
                )
        # Shift phits of the flit on the wires; on the completion edge
        # the flit enters the wire pipeline and becomes an envelope.
        if self._shifting is not None:
            vc, flit, remaining = self._shifting
            remaining -= 1
            self.phits_carried += 1
            if remaining == 0:
                self._emit(cycle + 1 + self.pipeline_latency, vc, flit)
                self.flits_carried += 1
                self.flits_per_vc[vc] += 1
                self._shifting = None
            else:
                self._shifting = (vc, flit, remaining)
            return
        # Start serializing the next flit, round-robin over VCs with a
        # flit staged and a credit in hand.
        feeds = self.feeds
        for offset in range(self.vcs):
            vc = (self._next_vc + offset) % self.vcs
            if feeds[vc]._committed and credits[vc] > 0:
                flit = feeds[vc].pop()
                credits[vc] -= 1
                self._shifting = (vc, flit, self.serialization)
                self._next_vc = (vc + 1) % self.vcs
                return

    def _emit(self, arrival: int, vc: int, flit) -> None:
        envelope = (arrival, vc, self._seq, flit)
        self._seq += 1
        self.envelopes_sent += 1
        peer = self._peer_rx
        if peer is not None:
            peer.receive_flits([envelope])
        else:
            self.outbox.append(envelope)


class ShardLinkRx(Component, Snapshottable):
    """Receive half of a cut inter-router link (destination shard).

    Pushes each flit envelope into its VC's delivery queue at the
    envelope's arrival cycle (the held credit guarantees room), and
    observes the destination router draining the delivery queues to
    emit credit envelopes stamped with the pop cycle.  Registered after
    the plane's routers, so a pop at cycle ``u`` is observed at cycle
    ``u`` — the component stays hot while any delivery queue holds
    flits, which is exactly when pops can happen.
    """

    _snapshot_fields = (
        "_inbox",
        "_seen_pops",
        "credit_outbox",
        "flits_delivered",
    )

    def __init__(self, name: str, deliveries: List[SimQueue]) -> None:
        super().__init__(name)
        self.deliveries = list(deliveries)
        self.vcs = len(self.deliveries)
        self._inbox: Deque[Tuple[int, int, int, object]] = deque()
        self._seen_pops = [0] * self.vcs
        self.credit_outbox: List[Tuple[int, int, int]] = []
        self._peer_tx: Optional[ShardLinkTx] = None
        self.flits_delivered = 0
        for queue in self.deliveries:
            queue.wake_on_pop(self)

    def set_remote(self) -> None:
        """Worker mode: credits stay in ``credit_outbox`` for the barrier."""
        self._peer_tx = None

    def bind_peer(self, tx: ShardLinkTx) -> None:
        self._peer_tx = tx

    def receive_flits(
        self, envelopes: List[Tuple[int, int, int, object]]
    ) -> None:
        """Accept flit envelopes in canonical ``(arrival, seq)`` order."""
        inbox = self._inbox
        for envelope in envelopes:
            if inbox and envelope[0] < inbox[-1][0]:
                raise RuntimeError(
                    f"{self.name}: flit envelope arrives out of order "
                    f"({envelope[0]} after {inbox[-1][0]})"
                )
            inbox.append(envelope)
        if envelopes:
            self.wake()

    @property
    def in_flight(self) -> int:
        return len(self._inbox)

    def idle(self) -> bool:
        return not self._inbox and not self.credit_outbox

    def next_event_cycle(self, now: int):
        # Stay hot while a delivery queue holds flits: the destination
        # router may pop any cycle and the credit must be stamped with
        # the true pop cycle.
        for queue in self.deliveries:
            if queue._occ:
                return now
        if self._inbox:
            arrival = self._inbox[0][0]
            return arrival if arrival > now else now
        return None

    def tick(self, cycle: int) -> None:
        inbox = self._inbox
        deliveries = self.deliveries
        while inbox and inbox[0][0] <= cycle:
            __, vc, __seq, flit = inbox.popleft()
            deliveries[vc].push(flit)  # a held credit guarantees room
            self.flits_delivered += 1
        # Observe pops since the last tick; pops happen in the router
        # block (registered before this component), so a pop at this
        # cycle is visible here this cycle.
        credits: List[Tuple[int, int, int]] = []
        seen = self._seen_pops
        for vc, queue in enumerate(deliveries):
            delta = queue.total_popped - seen[vc]
            if delta:
                seen[vc] = queue.total_popped
                credits.append((cycle, vc, delta))
        if credits:
            peer = self._peer_tx
            if peer is not None:
                peer.receive_credits(credits)
            else:
                self.credit_outbox.extend(credits)


# --------------------------------------------------------------------- #
# ownership bookkeeping
# --------------------------------------------------------------------- #
class ShardOwnership:
    """Maps every component and queue of a sharded build to its shard.

    Ownership is recorded by *registration interval*: the build wraps
    each creation block in :meth:`owned_by` and every component/queue
    registered inside the block belongs to that block's shard — exactly
    one.  :meth:`finalize` verifies the cover is total, so a new
    subsystem that forgets to declare ownership fails loudly at build
    time instead of silently desyncing shards.
    """

    def __init__(self, sim: Simulator, n_shards: int) -> None:
        self.sim = sim
        self.n_shards = n_shards
        self.component_owner: Dict[str, int] = {}
        self.queue_owner: Dict[str, int] = {}

    @contextmanager
    def owned_by(self, shard: int):
        sim = self.sim
        c0 = len(sim._components)
        q0 = len(sim._queues)
        yield
        for component in sim._components[c0:]:
            self.component_owner[component.name] = shard
        for queue in sim._queues[q0:]:
            self.queue_owner[queue.name] = shard

    def queues_of(self, shard: int) -> set:
        return {n for n, s in self.queue_owner.items() if s == shard}

    def finalize(self) -> None:
        unowned = [
            c.name
            for c in self.sim._components
            if c.name not in self.component_owner
        ]
        unowned_queues = [
            q.name for q in self.sim._queues if q.name not in self.queue_owner
        ]
        if unowned or unowned_queues:
            raise ShardConfigError(
                f"sharded build left state without a shard owner: "
                f"components {sorted(unowned)!r}, queues "
                f"{sorted(unowned_queues)!r} — wrap their creation in "
                f"ShardOwnership.owned_by()"
            )


# --------------------------------------------------------------------- #
# per-source id scoping
# --------------------------------------------------------------------- #
#: Spacing between per-source id streams: stream k allocates from
#: (k + 1) << ID_SCOPE_SHIFT, so scoped ids never collide with each
#: other or with the process-global counters (which start at 0).
ID_SCOPE_SHIFT = 32


def txn_id_stream(scope_index: int) -> SerialCounter:
    return SerialCounter(start=(scope_index + 1) << ID_SCOPE_SHIFT)


def scope_txn_ids(component: Component, stream: SerialCounter) -> None:
    """Make ``component.tick`` allocate transaction ids from ``stream``.

    The single-process run of a sharded build interleaves every source
    on the process-global counter; worker processes only run their own
    sources, so the interleaving — and with it the id *values* — would
    differ.  Values leak into behavior (protocol id truncation, e.g.
    VCI's 8-bit pktid), so sharded builds give every allocating
    component its own id stream: identical values whether the sources
    run together or apart.  Unsharded builds are untouched.
    """
    inner = component.tick

    def tick(cycle: int, _inner=inner, _stream=stream) -> None:
        previous = _txn_mod._txn_ids
        _txn_mod._txn_ids = _stream
        try:
            _inner(cycle)
        finally:
            _txn_mod._txn_ids = previous

    component.tick = tick


def scope_packet_ids(component: Component, stream: SerialCounter) -> None:
    """Like :func:`scope_txn_ids`, for flit packet ids (injection ports)."""
    inner = component.tick

    def tick(cycle: int, _inner=inner, _stream=stream) -> None:
        previous = _flit_mod._flit_packet_ids
        _flit_mod._flit_packet_ids = _stream
        try:
            _inner(cycle)
        finally:
            _flit_mod._flit_packet_ids = previous

    component.tick = tick


# --------------------------------------------------------------------- #
# worker-side restriction
# --------------------------------------------------------------------- #
def _noop_tick(cycle: int) -> None:
    """Muted foreign component: the owning shard simulates it."""


def _never_events(now: int):
    return None


def mute_component(component: Component) -> None:
    """Neutralize a foreign component in a worker process.

    The component stays registered (names, scheduling indices and
    snapshot shape are unchanged) but never acts: its tick is a no-op
    and the kernel retires it as permanently dormant.  Queue wakes may
    still re-schedule it; the re-scheduled tick is a no-op and the next
    sweep retires it again.
    """
    component.tick = _noop_tick
    component.next_event_cycle = _never_events


def restrict_to_shard(soc, shard: int) -> None:
    """Turn a full sharded build into shard ``shard``'s worker instance.

    Every component owned by another shard is muted (foreign masters
    are the load-bearing case: they are the traffic roots — everything
    else is demand-driven and simply stays idle), and this shard's
    boundary halves switch to outbox mode so envelopes flow through the
    coordinator instead of directly to (muted) peers.
    """
    ownership = soc.shard_ownership
    if ownership is None:
        raise ShardConfigError(
            "restrict_to_shard() needs a sharded build "
            "(SocBuilder(shards=...))"
        )
    owner = ownership.component_owner
    for component in soc.sim._components:
        if owner[component.name] != shard:
            mute_component(component)
    for plane in soc.fabric._planes:
        for tx in plane.boundary_tx.values():
            tx.set_remote()
        for rx in plane.boundary_rx.values():
            rx.set_remote()


def shard_next_event(sim: Simulator) -> Optional[int]:
    """Earliest cycle >= ``sim.cycle`` at which this shard can act, or
    ``None`` when it is dormant until an envelope arrives."""
    if sim._wakes or sim._dirty_queues:
        return sim.cycle
    horizon = sim.cycle + (1 << 40)
    found = sim._next_event_horizon(horizon)
    return None if found >= horizon else found


# --------------------------------------------------------------------- #
# per-shard fingerprints
# --------------------------------------------------------------------- #
def fingerprint_shard(soc, shard: int) -> Dict:
    """The slice of :func:`repro.sim.fingerprint.fingerprint_soc` owned
    by ``shard``, with registry histograms as raw samples (shared
    plane-level histograms — per-priority flow latencies — are recorded
    by several shards and merge exactly by concatenation)."""
    ownership = soc.shard_ownership
    owned_queues = ownership.queues_of(shard)
    owner = ownership.component_owner
    sim = soc.sim

    def mine(obj) -> bool:
        return owner.get(obj.name) == shard

    queues = {
        name: (q.total_pushed, q.total_popped, q.high_watermark)
        for name, q in sim._queue_names.items()
        if name in owned_queues
    }
    masters = {
        name: (m.issued, m.completed, m.errors, m.excl_failures)
        for name, m in soc.masters.items()
        if mine(m)
    }
    routers = {}
    eports = {}
    for plane in (soc.fabric.request_plane, soc.fabric.response_plane):
        for router in plane.routers.values():
            if not mine(router):
                continue
            routers[router.name] = (
                router.flits_forwarded,
                router.packets_forwarded,
                router.lock_stall_cycles,
                router.packets_adaptive,
                router.packets_escape,
                router.faults_hit,
                router.packets_rerouted,
                router.fault_stall_cycles,
                dict(router.output_busy_cycles),
            )
        for eport in plane.ejection_ports.values():
            if not mine(eport):
                continue
            eports[eport.name] = (
                eport.packets_ejected,
                eport.packets_resequenced,
                eport.reorder_high_watermark,
            )
    nius = {
        name: (niu.requests_sent, niu.responses_delivered, niu.stall_cycles)
        for name, niu in soc.initiator_nius.items()
        if mine(niu)
    }
    tnius = {
        name: (t.requests_served, t.excl_failures, t.lock_blocked_cycles)
        for name, t in soc.target_nius.items()
        if mine(t)
    }
    latencies = {
        name: soc.master_latency(name)
        for name, m in soc.masters.items()
        if mine(m)
    }
    histogram_samples = {
        name: list(h._samples) for name, h in sim.stats._histograms.items()
    }
    memory = {
        name: mem.store.image()
        for name, mem in sorted(soc.memories.items())
        if mine(mem)
    }
    return {
        "queues": queues,
        "masters": masters,
        "routers": routers,
        "ejection_ports": eports,
        "initiator_nius": nius,
        "target_nius": tnius,
        "latencies": latencies,
        "histogram_samples": histogram_samples,
        "trace": sim.trace.dump(),
        "memory": memory,
        "completed": sum(m.completed for m in soc.masters.values() if mine(m)),
        "cycle": sim.cycle,
    }


def merge_shard_fingerprints(fragments: List[Dict]) -> Dict:
    """Union per-shard fragments into one :func:`fingerprint_soc`-shaped
    dict (byte-comparable with the single-process run)."""
    from repro.sim.stats import Histogram

    if not fragments:
        raise ValueError("merge_shard_fingerprints() needs >= 1 fragment")
    cycles = {fragment["cycle"] for fragment in fragments}
    if len(cycles) != 1:
        raise RuntimeError(f"shards ended at different cycles: {cycles!r}")
    merged: Dict = {
        "queues": {},
        "masters": {},
        "routers": {},
        "ejection_ports": {},
        "initiator_nius": {},
        "target_nius": {},
        "latencies": {},
        "memory": {},
    }
    for section in merged:
        for fragment in fragments:
            for name, value in fragment[section].items():
                if name in merged[section]:
                    raise RuntimeError(
                        f"shard fingerprint collision in {section!r}: "
                        f"{name!r} owned by two shards"
                    )
                merged[section][name] = value
    samples: Dict[str, List[float]] = {}
    for fragment in fragments:
        for name, values in fragment["histogram_samples"].items():
            samples.setdefault(name, []).extend(values)
    stats = {}
    for name in sorted(samples):
        histogram = Histogram(name)
        histogram._samples.extend(samples[name])
        stats[name] = histogram.summary()
    merged["stats"] = stats
    # Sharded builds reject enabled tracers, so every fragment's trace
    # dump is the empty string; join keeps the fingerprint_soc shape.
    merged["trace"] = "\n".join(t for t in (f["trace"] for f in fragments) if t)
    merged["memory"] = dict(sorted(merged["memory"].items()))
    merged["completed"] = sum(f["completed"] for f in fragments)
    merged["cycle"] = cycles.pop()
    return merged
