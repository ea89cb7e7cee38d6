"""Network assembly: routers + links + injection/ejection ports.

A :class:`Network` is one routing plane.  A :class:`Fabric` is what NIUs
actually attach to: two independent planes — one for requests, one for
responses — the standard construction that removes request/response
protocol deadlock without virtual channels.

Every connection — inter-router and NIU↔router — is built through a
:class:`~repro.phys.link.LinkSpec`.  The default spec (full width, no
pipeline stages, both ends in the same clock domain) wires the connection
as one raw shared :class:`~repro.sim.queue.SimQueue` per virtual channel,
exactly as a fabric with no physical layer: zero extra components,
cycle-identical.  Anything else (narrow phits, wire pipelining, or a
clock-domain boundary between an endpoint's region and the fabric
domain) instantiates a link component between staging queues: a
:class:`~repro.phys.link.PhysicalLink` for single-VC planes, or a
:class:`~repro.phys.link.VcPhysicalLink` that time-multiplexes all VCs
of the connection over one physical channel with per-VC credit
accounting — per-link timing is part of the fabric, not a bolt-on.

NIU-facing API (all packet granularity; flits and VCs are internal):

- ``fabric.can_inject_request(ep)`` / ``fabric.inject_request(ep, pkt)``
- ``fabric.requests(ep)`` — :class:`SimQueue` of request packets arriving
  at target endpoint ``ep`` (target NIU pops);
- symmetric ``*_response`` / ``responses(ep)`` for the reply direction.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Hashable, List, Optional, Tuple, Union

from repro.core.packet import NocPacket, PacketFormat
from repro.phys.link import LinkSpec, PhysicalLink, VcPhysicalLink, domains_cross
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.queue import SimQueue
from repro.sim.shard import (
    ShardConfigError,
    ShardLinkRx,
    ShardLinkTx,
    ShardOwnership,
    ShardPlan,
)
from repro.sim.snapshot import Snapshottable
from repro.sim.stats import Histogram
from repro.transport.faults import FaultInjector, FaultSchedule
from repro.transport.flit import Flit, Packetizer, Reassembler, flits_for_packet
from repro.transport.qos import make_arbiter
from repro.transport.router import Router
from repro.transport.routing import (
    EscapeVcPolicy,
    VcPolicy,
    compute_adaptive_tables,
    compute_tables,
    make_vc_policy,
    port_local,
    port_to,
)
from repro.transport.switching import SwitchingMode
from repro.transport.topology import Topology


class BufferSizingError(ValueError):
    """A buffer/link capacity cannot satisfy the switching mode.

    Raised at build time (a link spec stages fewer flits than the
    switching mode can be asked to forward — the configuration would
    wedge silently mid-run) and at injection (a packet longer than the
    router input buffers admit under store-and-forward / cut-through).
    """


class InjectionPort(Component, Snapshottable):
    """Segments packets from a NIU into flits feeding the local router.

    With several VCs the port keeps one pending flit stream per VC (the
    VC chosen per packet by the plane's :class:`VcPolicy`) and pushes at
    most one flit per cycle, round-robin over the VCs with flits staged
    and feed space — one physical channel, per-VC buffering.  A blocked
    packet parks aside into its VC's pending stream, so the *next*
    packet in the queue still reaches the fabric on its own VC; a
    backlog of several blocked packets queues in arrival order (the
    packet queue itself is a shared FIFO — per-VC injection queues are
    an open item, see ROADMAP).
    """

    def __init__(
        self,
        name: str,
        endpoint: int,
        packetizer: Packetizer,
        packet_queue: SimQueue,
        flit_queues: List[SimQueue],
        vc_policy: Optional[VcPolicy] = None,
    ) -> None:
        super().__init__(name)
        self.endpoint = endpoint
        self.packetizer = packetizer
        self.packet_queue = packet_queue
        self.flit_queues = list(flit_queues)
        self.vcs = len(self.flit_queues)
        self.vc_policy = vc_policy if vc_policy is not None else VcPolicy()
        self._pending: List[List[Flit]] = [[] for _ in range(self.vcs)]
        self._last_vc = self.vcs - 1
        self.packets_injected = 0
        self.flits_injected = 0
        packet_queue.wake_on_push(self)
        for queue in self.flit_queues:
            queue.wake_on_pop(self)

    _snapshot_fields = (
        "_pending",
        "_last_vc",
        "packets_injected",
        "flits_injected",
    )

    def pending_flits(self) -> int:
        return sum(len(pending) for pending in self._pending)

    def next_event_cycle(self, now: int):
        """Dormant only when nothing is pending and no packet can be
        segmented (the packet pushes that end that are wake-registered in
        __init__).  A port holding flits blocked on a full feed must stay
        *hot*: a downstream pop frees feed space in the same cycle it
        happens, and the strict kernel lets a later-ticked port use that
        space immediately — a pop-wake would re-arm us one cycle late."""
        if self.packet_queue._committed:
            return now
        for pending in self._pending:
            if pending:
                return now
        return None

    def tick(self, cycle: int) -> None:
        if self.vcs == 1:
            # Single-VC fast path: no per-VC rotation, and the VC policy
            # (stateless by contract) is consulted only when a packet is
            # actually segmented.
            pending = self._pending[0]
            if not pending and self.packet_queue._committed:
                packet = self.packet_queue.pop()
                packet.injected_cycle = cycle
                pending = self._pending[0] = self.packetizer.segment(
                    packet, vc=0
                )
                self.packets_injected += 1
            if pending and self.flit_queues[0].can_push():
                self.flit_queues[0].push(pending.pop(0))
                self.flits_injected += 1
            return
        if self.packet_queue:
            vc = self.vc_policy.injection_vc(self.packet_queue.peek(), self.vcs)
            if not 0 <= vc < self.vcs:
                raise ValueError(
                    f"{self.name}: VC policy chose injection VC {vc} "
                    f"outside 0..{self.vcs - 1}"
                )
            if not self._pending[vc]:
                packet = self.packet_queue.pop()
                packet.injected_cycle = cycle
                self._pending[vc] = self.packetizer.segment(packet, vc=vc)
                self.packets_injected += 1
        # One flit per cycle onto the feed, round-robin over ready VCs.
        for offset in range(1, self.vcs + 1):
            vc = (self._last_vc + offset) % self.vcs
            if self._pending[vc] and self.flit_queues[vc].can_push():
                self.flit_queues[vc].push(self._pending[vc].pop(0))
                self.flits_injected += 1
                self._last_vc = vc
                break


class EjectionPort(Component, Snapshottable):
    """Reassembles flits arriving at an endpoint back into packets.

    One reassembler per VC (each VC carries whole packets, never
    interleaved), one flit accepted per cycle round-robin over the VCs;
    completed packets are delivered into ``packet_queue``.

    ``resequence=True`` (adaptive planes) interposes a *reorder buffer*
    between reassembly and delivery: adaptive route choice is per
    packet, so packets between one (source, destination) pair can
    arrive out of order, but the transaction layer — state-table
    response matching, lock managers — is built on the fabric's per-pair
    FIFO contract.  :meth:`Network.inject` stamps every packet with a
    per-(source, destination) sequence number and the ejection port
    releases packets to the endpoint strictly in that order, holding
    later arrivals aside until the gap fills.  Only the tail of the
    *next expected* packet is ever refused (packet-granularity
    backpressure while its delivery queue is full, as on deterministic
    planes); out-of-order arrivals are always absorbed — refusing them
    could starve a gap-filling packet queued behind the refused tail on
    the same ejection VC.  The buffer's occupancy is therefore bounded
    by the traffic in flight towards this endpoint (a parked packet's
    missing predecessor is still in the fabric); ``reorder_high_watermark``
    tracks it.  Deterministic planes skip the machinery entirely
    (identical wiring and timing to the pre-adaptive fabric).
    """

    def __init__(
        self,
        name: str,
        endpoint: int,
        flit_queues: List[SimQueue],
        packet_queue: SimQueue,
        resequence: bool = False,
        flow_prefix: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.endpoint = endpoint
        # Per-flow latency recording (soc.flow_stats()): every delivered
        # packet's injection-to-delivery latency goes into registry
        # histograms under "<flow_prefix>.prio<p>" and
        # "<flow_prefix>.pair.<src>-><dst>".  None disables recording.
        # The two handles are cached per (priority, source), resolved at
        # that flow's first packet so registry creation order is what
        # per-packet lookups gave.  A pure cache: restore clears it and
        # the handles re-resolve by get-or-create.
        self._flow_prefix = flow_prefix
        self._flow_hists: Dict[Tuple[int, int], Tuple[Histogram, Histogram]] = {}
        self.flit_queues = list(flit_queues)
        self.vcs = len(self.flit_queues)
        self.packet_queue = packet_queue
        self.reassemblers = [
            Reassembler(name if self.vcs == 1 else f"{name}.vc{vc}")
            for vc in range(self.vcs)
        ]
        self._last_vc = self.vcs - 1
        self.packets_ejected = 0
        self.resequence = resequence
        self._rob: Dict[int, Dict[int, NocPacket]] = {}  # src -> seq -> pkt
        self._expected: Dict[int, int] = {}  # src -> next seq to release
        self._rob_count = 0
        self.reorder_high_watermark = 0
        #: Packets that arrived ahead of a same-pair predecessor and had
        #: to wait in the reorder buffer (adaptive planes only).
        self.packets_resequenced = 0
        for queue in self.flit_queues:
            queue.wake_on_push(self)
        packet_queue.wake_on_pop(self)

    _snapshot_fields = (
        "_last_vc",
        "packets_ejected",
        "_rob",
        "_expected",
        "_rob_count",
        "reorder_high_watermark",
        "packets_resequenced",
    )

    def _snapshot_state(self) -> dict:
        state = super()._snapshot_state()
        # _rob is a dict of dicts; shallow-capture the inner maps too so
        # the checkpoint's shape is fixed at capture time.
        state["_rob"] = {src: dict(m) for src, m in self._rob.items()}
        state["reassemblers"] = [a.snapshot() for a in self.reassemblers]
        return state

    def _restore_state(self, state) -> None:
        super()._restore_state(state)
        self._flow_hists.clear()
        for reassembler, envelope in zip(
            self.reassemblers, state["reassemblers"]
        ):
            reassembler.restore(envelope)

    @property
    def reassembler(self) -> Reassembler:
        """VC-0 reassembler (compatibility accessor for single-VC planes)."""
        return self.reassemblers[0]

    @property
    def reorder_occupancy(self) -> int:
        """Packets currently parked in the reorder buffer."""
        return self._rob_count

    def _record_flow(self, packet: NocPacket) -> None:
        """Injection-to-delivery latency into the per-flow histograms."""
        if self._flow_prefix is None or packet.injected_cycle < 0:
            return
        latency = self._simulator.cycle - packet.injected_cycle
        flow = (packet.priority, packet.route_source)
        hists = self._flow_hists.get(flow)
        if hists is None:
            stats = self._simulator.stats
            hists = self._flow_hists[flow] = (
                stats.histogram(f"{self._flow_prefix}.prio{packet.priority}"),
                stats.histogram(
                    f"{self._flow_prefix}.pair."
                    f"{packet.route_source}->{self.endpoint}"
                ),
            )
        hists[0].add(latency)
        hists[1].add(latency)

    def next_event_cycle(self, now: int):
        """Dormant only while nothing is buffered: arrivals are
        wake-registered (flit-queue pushes).  A port holding a tail flit
        (or a parked reorder-buffer packet) blocked on its full delivery
        queue must stay *hot* rather than waiting for the delivery pop's
        wake — the pop frees queue space in the same cycle it happens,
        and the strict kernel lets a later-ticked port deliver that same
        cycle."""
        if self._rob_count:
            return now
        for queue in self.flit_queues:
            if queue._committed:
                return now
        return None

    def tick(self, cycle: int) -> None:
        if self._rob_count:
            self._flush_reorder()
        packet_queue = self.packet_queue
        if self.vcs == 1 and not self.resequence:
            # Single-VC, no resequencing: the historical ejection port,
            # minus the rotation scaffolding.
            queue = self.flit_queues[0]
            committed = queue._committed
            if not committed:
                return
            flit = committed[0]
            if flit.seq == flit.count - 1 and not packet_queue.can_push():
                return  # hold the tail: packet-granularity backpressure
            queue.pop()
            packet = self.reassemblers[0].accept(flit)
            if packet is not None:
                packet_queue.push(packet)
                self.packets_ejected += 1
                self._record_flow(packet)
            return
        # One flit per cycle; hold a tail until its packet queue has room
        # so backpressure propagates into the fabric at packet granularity
        # — per VC, so a full queue on one VC never stalls the others.
        for offset in range(1, self.vcs + 1):
            vc = (self._last_vc + offset) % self.vcs
            queue = self.flit_queues[vc]
            if not queue:
                continue
            flit = queue.peek()
            if self.resequence:
                if flit.is_tail and self._hold_tail(vc, flit):
                    continue
                queue.pop()
                packet = self.reassemblers[vc].accept(flit)
                if packet is not None:
                    self._stage_packet(packet)
                self._last_vc = vc
                return
            if flit.is_tail and not packet_queue.can_push():
                continue
            queue.pop()
            packet = self.reassemblers[vc].accept(flit)
            if packet is not None:
                packet_queue.push(packet)
                self.packets_ejected += 1
                self._record_flow(packet)
            self._last_vc = vc
            return

    # ------------------------------------------------------------------ #
    # resequencing (adaptive planes)
    # ------------------------------------------------------------------ #
    def _hold_tail(self, vc: int, flit: Flit) -> bool:
        """Should this tail wait in its flit queue another cycle?

        A tail completing the *next expected* packet of its pair is held
        only while its delivery queue is full (packet-granularity
        backpressure, as on deterministic planes).  An out-of-order tail
        is never refused: holding it at the front of its flit queue
        could permanently block a gap-filling packet queued behind it on
        the same ejection VC.
        """
        head = self.reassemblers[vc]._current if not flit.is_head else flit
        assert head is not None and head.packet is not None
        packet = head.packet
        src = packet.route_source
        if packet.fabric_seq == self._expected.get(src, 0):
            return not self.packet_queue.can_push()
        return False

    def _stage_packet(self, packet: NocPacket) -> None:
        src = packet.route_source
        if packet.fabric_seq != self._expected.get(src, 0):
            self.packets_resequenced += 1
        self._rob.setdefault(src, {})[packet.fabric_seq] = packet
        self._rob_count += 1
        if self._rob_count > self.reorder_high_watermark:
            self.reorder_high_watermark = self._rob_count
        self._flush_reorder()

    def _flush_reorder(self) -> None:
        """Release every in-order packet its delivery queue can take."""
        out_queue = self.packet_queue
        for src in sorted(self._rob):
            pending = self._rob[src]
            expected = self._expected.get(src, 0)
            while True:
                packet = pending.get(expected)
                if packet is None or not out_queue.can_push():
                    break
                out_queue.push(packet)
                del pending[expected]
                self._rob_count -= 1
                expected += 1
                self.packets_ejected += 1
                self._record_flow(packet)
            self._expected[src] = expected
            if not pending:
                del self._rob[src]


class Network(Snapshottable):
    """One routing plane: routers, links, injection/ejection ports.

    The plane's only runtime state of its own is the per-(src, dst)
    injection sequence stream of adaptive planes; everything else lives
    on the registered components, which the kernel captures by name.
    """

    _snapshot_fields = ("_pair_seq",)

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        name: str = "net",
        mode: SwitchingMode = SwitchingMode.WORMHOLE,
        flit_payload_bits: int = 128,
        buffer_capacity: int = 8,
        arbiter: str = "priority",
        packet_format: Optional[PacketFormat] = None,
        routing: str = "table",
        endpoint_queue_capacity: int = 4,
        lock_support: bool = True,
        link_spec: Optional[LinkSpec] = None,
        endpoint_link_spec: Optional[LinkSpec] = None,
        fabric_domain=None,
        endpoint_domains: Optional[Dict[int, object]] = None,
        vcs: int = 1,
        vc_policy=None,
        faults: Optional[FaultSchedule] = None,
        shard_plan: Optional[ShardPlan] = None,
        shard_ownership: Optional[ShardOwnership] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.name = name
        self._shard_plan = shard_plan
        self._shard_ownership = shard_ownership
        #: Boundary halves of cut inter-router links, keyed (src, dst).
        self.boundary_tx: Dict[tuple, ShardLinkTx] = {}
        self.boundary_rx: Dict[tuple, ShardLinkRx] = {}
        self.mode = mode
        self.flit_payload_bits = flit_payload_bits
        self.buffer_capacity = buffer_capacity
        self.packetizer = Packetizer(flit_payload_bits, packet_format)
        self.link_spec = link_spec if link_spec is not None else LinkSpec()
        self.endpoint_link_spec = (
            endpoint_link_spec if endpoint_link_spec is not None else LinkSpec()
        )
        self.fabric_domain = fabric_domain
        self.endpoint_domains = dict(endpoint_domains or {})
        if vcs < 1:
            raise ValueError(f"{name}: vcs must be >= 1, got {vcs}")
        self.vcs = vcs
        self.routing = routing
        if routing == "adaptive" and vc_policy is None:
            vc_policy = "escape"  # the natural default for adaptive fabrics
        self.vc_policy = make_vc_policy(vc_policy)
        if routing == "adaptive" and not isinstance(
            self.vc_policy, EscapeVcPolicy
        ):
            raise ValueError(
                f"{name}: adaptive routing needs the escape VC policy "
                f"(vc_policy='escape' or an EscapeVcPolicy instance) to "
                f"split adaptive/escape VC classes, got "
                f"{self.vc_policy.name!r}"
            )
        if vcs < self.vc_policy.min_vcs:
            raise ValueError(
                f"{name}: VC policy {self.vc_policy.name!r} needs at least "
                f"{self.vc_policy.min_vcs} VCs, got vcs={vcs}"
            )
        self.links: List[Union[PhysicalLink, VcPhysicalLink]] = []
        self._link_feed_queues: List[SimQueue] = []
        self._validate_buffer_sizing()
        if shard_plan is not None:
            shard_plan.validate(topology)
            if shard_plan.cut_edges(topology) and self.link_spec.transparent(
                False
            ):
                raise ShardConfigError(
                    f"{name}: the shard plan cuts inter-router links but "
                    f"the router link spec is transparent (an ideal wire "
                    f"has zero lookahead, so there is no safe window to "
                    f"parallelize over) — give the inter-router links a "
                    f"LinkSpec with pipeline_latency >= 1 or narrowed "
                    f"phits"
                )

        if routing == "adaptive":
            adaptive_tables = compute_adaptive_tables(topology)
            tables = {r: t.escape for r, t in adaptive_tables.items()}
        else:
            adaptive_tables = None
            tables = compute_tables(topology, routing)
        # Pristine tables, kept so the fault injector can restore them on
        # a full heal (its recomputed tables are BFS-canonical, not DOR).
        self._adaptive_tables = adaptive_tables

        # Fault schedule, validated here (named FaultConfigError
        # subclasses).  The injector is registered *before* the routers
        # so a fault epoch is visible to every router tick of its cycle,
        # under both kernels.
        self.fault_injector: Optional[FaultInjector] = None
        self._edge_links: Dict[tuple, Optional[Union[PhysicalLink, VcPhysicalLink]]] = {}
        self._edge_feeds: Dict[tuple, List[SimQueue]] = {}
        if shard_plan is not None and faults:
            raise ShardConfigError(
                f"{name}: fault injection is out of scope for sharded "
                f"fabrics (v1) — a fault epoch is a global event that "
                f"the per-shard safe window cannot order; drop the fault "
                f"schedule or the shards"
            )
        if faults:
            faults.validate(topology)
            self.fault_injector = FaultInjector(f"{name}.faults", self, faults)
            sim.add(self.fault_injector)
        # Adaptive route choice is per packet, so one (source, dest)
        # pair's packets can arrive out of order; the transaction layer
        # is built on per-pair FIFO delivery, so adaptive planes stamp a
        # per-pair sequence number at injection and resequence at
        # ejection (see EjectionPort).  Deterministic planes skip both.
        self._sequenced = routing == "adaptive"
        self._pair_seq: Dict[Tuple[int, int], int] = {}

        self.routers: Dict[Hashable, Router] = {}
        for router_id in topology.routers:
            router = Router(
                name=f"{name}.r{router_id}",
                router_id=router_id,
                table=tables[router_id],
                mode=mode,
                buffer_capacity=buffer_capacity,
                arbiter=make_arbiter(arbiter),
                lock_support=lock_support,
                vcs=vcs,
                vc_policy=self.vc_policy,
                adaptive_table=(
                    adaptive_tables[router_id]
                    if adaptive_tables is not None
                    else None
                ),
            )
            if fabric_domain is not None:
                router.set_clock_domain(fabric_domain)
            with self._own(router_id):
                sim.add(router)
            self.routers[router_id] = router

        # Inter-router links: router A's output "to:B" feeds router B's
        # input "in:A" (one link per direction, built per the link spec —
        # a transparent spec degenerates to one shared queue per VC).
        for a, b in topology.links:
            for src, dst in ((a, b), (b, a)):
                if shard_plan is not None and shard_plan.shard_of(
                    src
                ) != shard_plan.shard_of(dst):
                    # Cut edge: the link becomes a boundary tx/rx pair,
                    # feed queues on the source shard, delivery queues on
                    # the destination shard (see repro.sim.shard).
                    feeds, deliveries = self._build_boundary(
                        f"{name}.link.{src}->{dst}", src, dst
                    )
                    self._edge_links[(src, dst)] = None
                    self._edge_feeds[(src, dst)] = feeds
                else:
                    links_before = len(self.links)
                    with self._own(src):
                        feeds, deliveries = self._build_link(
                            f"{name}.link.{src}->{dst}",
                            self.link_spec,
                            fabric_domain,
                            fabric_domain,
                        )
                    if len(self.links) > links_before:
                        # Real link: the injector counts its staged/
                        # in-flight phits when a fault cuts this edge
                        # (they drain).
                        self._edge_links[(src, dst)] = self.links[-1]
                        self._edge_feeds[(src, dst)] = feeds
                    else:
                        # Transparent wire: the "link" is the downstream
                        # input buffer itself, nothing is ever in flight.
                        self._edge_links[(src, dst)] = None
                        self._edge_feeds[(src, dst)] = []
                for vc in range(self.vcs):
                    self.routers[src].add_output(
                        port_to(dst), feeds[vc], vc=vc, neighbor=dst
                    )
                    self.routers[dst].add_input(
                        f"in:{src}", deliveries[vc], vc=vc, neighbor=src
                    )

        # Endpoint attachment: injection + ejection per endpoint.  An
        # endpoint whose region differs from the fabric domain gets the
        # CDC folded into its links automatically.
        self._inject_queues: Dict[int, SimQueue] = {}
        self._eject_queues: Dict[int, SimQueue] = {}
        self.injection_ports: Dict[int, InjectionPort] = {}
        self.ejection_ports: Dict[int, EjectionPort] = {}
        for endpoint in topology.endpoints:
            with self._own(topology.router_of(endpoint)):
                self._attach_endpoint(endpoint, endpoint_queue_capacity)

    def _attach_endpoint(
        self, endpoint: int, endpoint_queue_capacity: int
    ) -> None:
        """Injection + ejection for one endpoint (everything this
        registers is owned by the endpoint's router's shard)."""
        sim = self.sim
        name = self.name
        fabric_domain = self.fabric_domain
        router = self.routers[self.topology.router_of(endpoint)]
        ep_domain = self.endpoint_domains.get(endpoint)
        inj_packets = sim.new_queue(
            f"{name}.inj.{endpoint}.pkts", capacity=endpoint_queue_capacity
        )
        inj_feeds, inj_deliveries = self._build_link(
            f"{name}.inj.{endpoint}.flits",
            self.endpoint_link_spec,
            ep_domain,
            fabric_domain,
        )
        for vc in range(self.vcs):
            router.add_input(
                f"inj:{endpoint}", inj_deliveries[vc], vc=vc, order=endpoint
            )
        port = InjectionPort(
            f"{name}.inj.{endpoint}",
            endpoint,
            self.packetizer,
            inj_packets,
            inj_feeds,
            vc_policy=self.vc_policy,
        )
        if ep_domain is not None:
            port.set_clock_domain(ep_domain)
        sim.add(port)
        self._inject_queues[endpoint] = inj_packets
        self.injection_ports[endpoint] = port

        ej_feeds, ej_deliveries = self._build_link(
            f"{name}.ej.{endpoint}.flits",
            self.endpoint_link_spec,
            fabric_domain,
            ep_domain,
        )
        for vc in range(self.vcs):
            router.add_output(
                port_local(endpoint), ej_feeds[vc], vc=vc, order=endpoint
            )
        ej_packets = sim.new_queue(
            f"{name}.ej.{endpoint}.pkts", capacity=endpoint_queue_capacity
        )
        eport = EjectionPort(
            f"{name}.ej.{endpoint}",
            endpoint,
            ej_deliveries,
            ej_packets,
            resequence=self._sequenced,
            flow_prefix=f"{name}.flow",
        )
        if ep_domain is not None:
            eport.set_clock_domain(ep_domain)
        sim.add(eport)
        self._eject_queues[endpoint] = ej_packets
        self.ejection_ports[endpoint] = eport

    # ------------------------------------------------------------------ #
    # shard boundary wiring
    # ------------------------------------------------------------------ #
    def _own(self, router_id: Hashable):
        """Ownership scope for state belonging to ``router_id``'s shard
        (a no-op context on unsharded builds)."""
        if self._shard_ownership is None or self._shard_plan is None:
            return nullcontext()
        return self._shard_ownership.owned_by(
            self._shard_plan.shard_of(router_id)
        )

    def _build_boundary(
        self, qname: str, src: Hashable, dst: Hashable
    ) -> Tuple[List[SimQueue], List[SimQueue]]:
        """Build a cut inter-router link as a ShardLinkTx/Rx pair.

        Queue names match :meth:`_build_link`'s non-transparent layout
        (feeds ``<qname>[.vcN].tx``, deliveries ``<qname>[.vcN]``); the
        tx half and the feeds belong to the source shard, the rx half
        and the deliveries to the destination shard.  The rx is
        registered here — after the plane's routers — so it observes
        destination-router pops in the cycle they happen.
        """
        spec = self.link_spec
        plan = self._shard_plan
        vcs = self.vcs
        names = [qname if vc == 0 else f"{qname}.vc{vc}" for vc in range(vcs)]
        capacity = spec.capacity or self.buffer_capacity
        flit_bits = self.packetizer.flit_bits
        credit_return = (
            plan.credit_return_latency
            if plan.credit_return_latency is not None
            else 1 + spec.pipeline_latency
        )
        with self._own(src):
            feeds = [
                self.sim.new_queue(f"{n}.tx", capacity=capacity)
                for n in names
            ]
            tx = ShardLinkTx(
                f"{qname}.phy.tx",
                feeds,
                [capacity] * vcs,
                flit_bits=flit_bits,
                phit_bits=spec.phit_bits or flit_bits,
                pipeline_latency=spec.pipeline_latency,
                credit_return_latency=credit_return,
            )
            if self.fabric_domain is not None:
                tx.set_clock_domain(self.fabric_domain)
            self.sim.add(tx)
        with self._own(dst):
            deliveries = [
                self.sim.new_queue(n, capacity=capacity) for n in names
            ]
            rx = ShardLinkRx(f"{qname}.phy.rx", deliveries)
            if self.fabric_domain is not None:
                rx.set_clock_domain(self.fabric_domain)
            self.sim.add(rx)
        tx.bind_peer(rx)
        rx.bind_peer(tx)
        self._link_feed_queues.extend(feeds)
        self.boundary_tx[(src, dst)] = tx
        self.boundary_rx[(src, dst)] = rx
        return feeds, deliveries

    # ------------------------------------------------------------------ #
    # build-time validation
    # ------------------------------------------------------------------ #
    def _validate_buffer_sizing(self) -> None:
        """Reject configurations that would wedge silently mid-run.

        :meth:`inject` admits packets of up to ``buffer_capacity`` flits
        under store-and-forward / cut-through (the router input buffer
        depth), so every flit queue on the datapath — including the
        staging buffers of non-transparent links — must hold at least
        :meth:`SwitchingMode.min_buffer_for` of that many flits, or a
        legally injected packet's head can wait forever for downstream
        space that cannot exist.
        """
        if self.mode is SwitchingMode.WORMHOLE:
            return
        minimum = self.mode.min_buffer_for(self.buffer_capacity)
        # A spec with no serialization/pipelining is still wired as a
        # real (capacity-limited) link when the connection crosses clock
        # domains, so judge transparency the way _build_link will.
        endpoint_crossing = any(
            domains_cross(self.endpoint_domains.get(ep), self.fabric_domain)
            for ep in self.topology.endpoints
        )
        for cls, spec, crosses in (
            ("router", self.link_spec, False),
            ("endpoint", self.endpoint_link_spec, endpoint_crossing),
        ):
            capacity = (
                self.buffer_capacity
                if spec.transparent(crosses)
                else (spec.capacity or self.buffer_capacity)
            )
            if capacity < minimum:
                raise BufferSizingError(
                    f"{self.name}: {cls} links stage only {capacity} flits "
                    f"but {self.mode} switching admits packets up to "
                    f"{self.buffer_capacity} flits (router input buffer "
                    f"depth), which need min_buffer_for = {minimum}; a "
                    f"long packet would wedge at every router of "
                    f"{self.topology.name!r} — raise LinkSpec.capacity to "
                    f">= {minimum} or lower buffer_capacity"
                )

    # ------------------------------------------------------------------ #
    # physical-layer wiring
    # ------------------------------------------------------------------ #
    def _build_link(
        self, qname: str, spec: LinkSpec, producer_domain, consumer_domain
    ) -> Tuple[List[SimQueue], List[SimQueue]]:
        """Build one directed connection per ``spec``.

        Returns ``(feeds, deliveries)``, one queue per VC: the producer
        pushes into ``feeds[vc]`` and the consumer pops from
        ``deliveries[vc]``.  A transparent spec (ideal wire, same domain
        at both ends) returns shared queues under the historical link
        name (suffixed ``.vc<N>`` beyond VC 0) — byte-identical wiring
        to a fabric without a physical layer.  Otherwise a link
        component (serialization, pipeline, CDC when the domains differ)
        is instantiated between per-VC staging queues: a
        :class:`PhysicalLink` when the plane has one VC, a
        :class:`VcPhysicalLink` time-multiplexing all VCs over one
        physical channel with per-VC credit accounting otherwise.
        """
        vcs = self.vcs
        names = [qname if vc == 0 else f"{qname}.vc{vc}" for vc in range(vcs)]
        crosses = domains_cross(producer_domain, consumer_domain)
        if spec.transparent(crosses):
            queues = [
                self.sim.new_queue(n, capacity=self.buffer_capacity)
                for n in names
            ]
            return queues, queues
        capacity = spec.capacity or self.buffer_capacity
        feeds = [self.sim.new_queue(f"{n}.tx", capacity=capacity) for n in names]
        deliveries = [self.sim.new_queue(n, capacity=capacity) for n in names]
        flit_bits = self.packetizer.flit_bits
        if vcs == 1:
            link: Union[PhysicalLink, VcPhysicalLink] = PhysicalLink(
                f"{qname}.phy",
                feeds[0],
                deliveries[0],
                flit_bits=flit_bits,
                phit_bits=spec.phit_bits or flit_bits,
                pipeline_latency=spec.pipeline_latency,
                producer_domain=producer_domain,
                consumer_domain=consumer_domain,
                sync_stages=spec.sync_stages,
            )
        else:
            link = VcPhysicalLink(
                f"{qname}.phy",
                feeds,
                deliveries,
                flit_bits=flit_bits,
                phit_bits=spec.phit_bits or flit_bits,
                pipeline_latency=spec.pipeline_latency,
                producer_domain=producer_domain,
                consumer_domain=consumer_domain,
                sync_stages=spec.sync_stages,
            )
        self.sim.add(link)
        self.links.append(link)
        self._link_feed_queues.extend(feeds)
        return feeds, deliveries

    # ------------------------------------------------------------------ #
    # NIU-facing API
    # ------------------------------------------------------------------ #
    def can_inject(self, endpoint: int) -> bool:
        return self._inject_queues[endpoint].can_push()

    def inject(self, endpoint: int, packet: NocPacket) -> None:
        if self.mode is not SwitchingMode.WORMHOLE:
            # Only SAF/VCT need the length here; the injection port
            # computes it again when it segments the packet.
            flits = flits_for_packet(
                packet,
                self.flit_payload_bits,
                header_bits=self.packetizer._header_bits,
            )
            if flits > self.buffer_capacity:
                raise BufferSizingError(
                    f"{self.name}: packet of {flits} flits needs buffers of "
                    f"min_buffer_for = {self.mode.min_buffer_for(flits)} flits "
                    f"under {self.mode} switching, but router "
                    f"{self.topology.router_of(endpoint)!r} (and every other) "
                    f"has buffer_capacity {self.buffer_capacity}"
                )
        if self._sequenced:
            pair = (endpoint, packet.route_destination)
            packet.fabric_seq = self._pair_seq.get(pair, 0)
            self._pair_seq[pair] = packet.fabric_seq + 1
        self._inject_queues[endpoint].push(packet)

    def ejected(self, endpoint: int) -> SimQueue:
        return self._eject_queues[endpoint]

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def total_flits_forwarded(self) -> int:
        return sum(r.flits_forwarded for r in self.routers.values())

    def total_lock_stall_cycles(self) -> int:
        return sum(r.lock_stall_cycles for r in self.routers.values())

    def idle(self) -> bool:
        """No flit anywhere in this plane (used for drain detection)."""
        for router in self.routers.values():
            for queue in router.inputs.values():
                if queue.occupancy:
                    return False
        for port in self.injection_ports.values():
            if port.pending_flits() or port.packet_queue.occupancy:
                return False
        for queue in self._eject_queues.values():
            if queue.occupancy:
                return False
        for eport in self.ejection_ports.values():
            for queue in eport.flit_queues:
                if queue.occupancy:
                    return False
            for reassembler in eport.reassemblers:
                if reassembler.mid_packet:
                    return False
            if eport.reorder_occupancy:
                return False
        # Physical links: flits may be staged on the feed side (a router
        # output that is no longer any router's input) or in flight on
        # the wires / in a synchronizer.
        for queue in self._link_feed_queues:
            if queue.occupancy:
                return False
        for link in self.links:
            if link.in_flight:
                return False
        # Boundary halves of cut links: a flit mid-serialization or an
        # envelope waiting in an inbox/outbox is still in flight.
        for tx in self.boundary_tx.values():
            if not tx.idle():
                return False
        for rx in self.boundary_rx.values():
            if not rx.idle():
                return False
        return True

    def mean_link_utilization(self, cycles: int) -> float:
        if cycles <= 0:
            return 0.0
        busy = sum(
            sum(r.output_busy_cycles.values()) for r in self.routers.values()
        )
        ports = sum(len(r.output_busy_cycles) for r in self.routers.values())
        return busy / (cycles * ports) if ports else 0.0


class Fabric:
    """The request plane and the response plane.

    This is the object NIUs bind to.  It also exposes the transaction-
    layer packet format in force, because the paper's configuration flow
    derives the format from the attached sockets and hands it to every
    NIU.

    ``vcs``/``vc_policy`` configure virtual channels per plane.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        name: str = "noc",
        mode: SwitchingMode = SwitchingMode.WORMHOLE,
        flit_payload_bits: int = 128,
        buffer_capacity: int = 8,
        arbiter: str = "priority",
        packet_format: Optional[PacketFormat] = None,
        routing: str = "table",
        lock_support: bool = True,
        link_spec: Optional[LinkSpec] = None,
        endpoint_link_spec: Optional[LinkSpec] = None,
        fabric_domain=None,
        endpoint_domains: Optional[Dict[int, object]] = None,
        vcs: int = 1,
        vc_policy=None,
        faults: Optional[FaultSchedule] = None,
        shard_plan: Optional[ShardPlan] = None,
        shard_ownership: Optional[ShardOwnership] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.name = name
        self.shard_plan = shard_plan
        self.packet_format = packet_format
        self.fabric_domain = fabric_domain
        self.endpoint_domains = dict(endpoint_domains or {})
        self.vcs = vcs
        common = dict(
            mode=mode,
            flit_payload_bits=flit_payload_bits,
            buffer_capacity=buffer_capacity,
            arbiter=arbiter,
            packet_format=packet_format,
            routing=routing,
            lock_support=lock_support,
            link_spec=link_spec,
            endpoint_link_spec=endpoint_link_spec,
            fabric_domain=fabric_domain,
            endpoint_domains=endpoint_domains,
            vcs=vcs,
            vc_policy=vc_policy,
            faults=faults,
            shard_plan=shard_plan,
            shard_ownership=shard_ownership,
        )
        self.request_plane = Network(sim, topology, name=f"{name}.req", **common)
        self.response_plane = Network(sim, topology, name=f"{name}.rsp", **common)
        self._planes = [self.request_plane, self.response_plane]

    # request direction (initiator -> target)
    def can_inject_request(self, endpoint: int) -> bool:
        return self.request_plane.can_inject(endpoint)

    def inject_request(self, endpoint: int, packet: NocPacket) -> None:
        self.request_plane.inject(endpoint, packet)

    def requests(self, endpoint: int) -> SimQueue:
        """Request packets delivered to target endpoint ``endpoint``."""
        return self.request_plane.ejected(endpoint)

    # response direction (target -> initiator)
    def can_inject_response(self, endpoint: int) -> bool:
        return self.response_plane.can_inject(endpoint)

    def inject_response(self, endpoint: int, packet: NocPacket) -> None:
        self.response_plane.inject(endpoint, packet)

    def responses(self, endpoint: int) -> SimQueue:
        """Response packets delivered to initiator endpoint ``endpoint``."""
        return self.response_plane.ejected(endpoint)

    def idle(self) -> bool:
        return all(plane.idle() for plane in self._planes)

    @property
    def physical_links(self) -> List[Union[PhysicalLink, VcPhysicalLink]]:
        """Every non-transparent link across all planes (introspection)."""
        links: List[Union[PhysicalLink, VcPhysicalLink]] = []
        for plane in self._planes:
            links.extend(plane.links)
        return links

    def total_phits_carried(self) -> int:
        return sum(link.phits_carried for link in self.physical_links)

    def total_flits_forwarded(self) -> int:
        return sum(plane.total_flits_forwarded() for plane in self._planes)

    def total_lock_stall_cycles(self) -> int:
        return sum(plane.total_lock_stall_cycles() for plane in self._planes)
