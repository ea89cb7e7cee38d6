"""Network assembly: routers + links + injection/ejection ports.

A :class:`Network` is one routing plane (its endpoint ports are in
:mod:`repro.transport.network.ports`).  A :class:`Fabric` is what NIUs
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

from repro.core.checks import Check, check, knob
from repro.core.packet import NocPacket, PacketFormat
from repro.phys.link import LinkSpec, PhysicalLink, VcPhysicalLink, domains_cross
from repro.sim.kernel import Simulator
from repro.sim.queue import SimQueue
from repro.sim.shard import ShardLinkRx, ShardLinkTx, ShardOwnership, ShardPlan
from repro.transport.flit import Packetizer, flit_count
from repro.transport.network.ports import EjectionPort, InjectionPort
from repro.transport.qos import ARBITERS, make_arbiter
from repro.transport.router import Router
from repro.transport.routing import (
    ROUTING_SCHEMES,
    VC_POLICIES,
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


def plane_tables(topology: Topology, routing: str) -> tuple:
    """``(tables, adaptive_tables or None)`` under ``routing``, computed
    once per (topology, scheme) and memoised on the topology: the one way
    a :class:`Network` gets tables.  Both planes' routers share these
    objects, so they are read-only; a checkpoint carries them once, with
    the topology's memo, so a restored SoC's routers share them too.
    """
    cached = topology._plane_tables.get(routing)
    if cached is None:
        if routing == "adaptive":
            adaptive = compute_adaptive_tables(topology)
            cached = ({r: t.escape for r, t in adaptive.items()}, adaptive)
        else:
            cached = (compute_tables(topology, routing), None)
        topology._plane_tables[routing] = cached
    return cached


class BufferSizingError(ValueError):
    """A buffer/link capacity cannot satisfy the switching mode.

    Raised at build time (a link spec stages fewer flits than the
    switching mode can be asked to forward — the configuration would
    wedge silently mid-run) and at injection (a packet longer than the
    router input buffers admit under store-and-forward / cut-through).
    """


def _undersized_link(plane: "Network") -> Optional[Tuple[str, int, int]]:
    """``(link class, flits it stages, min_buffer_for)`` of the first link
    class that cannot stage a packet of ``buffer_capacity`` flits, the
    longest :meth:`Network.inject` admits under store-and-forward /
    cut-through (its head would wait forever for space that cannot
    exist), or ``None``.  Transparency is judged the way
    :meth:`Network._build_link` wires a link: a domain crossing is real."""
    if plane.mode is SwitchingMode.WORMHOLE:
        return None
    minimum = plane.mode.min_buffer_for(plane.buffer_capacity)
    endpoint_crossing = any(
        domains_cross(plane.endpoint_domains.get(ep), plane.fabric_domain)
        for ep in plane.topology.endpoints
    )
    for cls, spec, crosses in (
        ("router", plane.link_spec, False),
        ("endpoint", plane.endpoint_link_spec, endpoint_crossing),
    ):
        transparent = spec.transparent(crosses)
        capacity = plane.buffer_capacity if transparent else (
            spec.capacity or plane.buffer_capacity)
        if capacity < minimum:
            return cls, capacity, minimum
    return None


def _policy(plane: "Network") -> VcPolicy:
    return make_vc_policy(plane.vc_policy)


#: Every plane rule, over the options as given (``vcs`` and ``vc_policy``
#: after the adaptive defaults): :meth:`Network._check_options` checks
#: them before the plane registers anything.
PLANE_ROWS = (
    knob("mode", lambda p: isinstance(p.mode, SwitchingMode),
         f"a SwitchingMode, one of {[mode.name for mode in SwitchingMode]}"),
    knob("routing", lambda p: p.routing in ROUTING_SCHEMES,
         f"one of {ROUTING_SCHEMES}"),
    knob("arbiter", lambda p: p.arbiter in ARBITERS, f"one of {sorted(ARBITERS)}"),
    knob("buffer_capacity", lambda p: p.buffer_capacity >= 1, ">= 1"),
    knob("vcs", lambda p: p.vcs >= 1, ">= 1"),
    knob("vc_policy", lambda p: p.vc_policy is None
         or isinstance(p.vc_policy, VcPolicy) or p.vc_policy in VC_POLICIES,
         f"a VcPolicy or one of {sorted(VC_POLICIES)}"),
    Check("adaptive_vc_policy", ("routing", "vc_policy"),
          lambda p: p.routing != "adaptive" or isinstance(_policy(p), EscapeVcPolicy),
          lambda p: f"adaptive routing needs the escape VC policy "
                    f"(vc_policy='escape' or an EscapeVcPolicy instance) to "
                    f"split adaptive/escape VC classes, got {_policy(p).name!r}"),
    Check("policy_vcs", ("vc_policy", "vcs"),
          lambda p: p.vcs >= _policy(p).min_vcs,
          lambda p: f"VC policy {_policy(p).name!r} needs at least "
                    f"{_policy(p).min_vcs} VCs, got vcs={p.vcs}"),
    Check("link_staging", ("mode", "link_spec", "endpoint_link_spec"),
          lambda p: _undersized_link(p) is None,
          lambda p: "{0} links stage only {1} flits but {p.mode} switching admits "
                    "packets up to {p.buffer_capacity} flits (router input buffer "
                    "depth), which need min_buffer_for = {2}; a long packet would "
                    "wedge at every router of {p.topology.name!r} — raise "
                    "LinkSpec.capacity to >= {2} or lower buffer_capacity".format(
                        *_undersized_link(p), p=p),
          BufferSizingError),
)


class Network:
    """One routing plane, assembled in four steps; each registers its
    components after the step before, and component order is tick order:

    1. :meth:`_check_options` — every plane rule, before anything exists;
    2. :meth:`_add_routers` — on :func:`plane_tables`' shared tables;
    3. :meth:`_add_router_links` — one link per direction of every
       topology link;
    4. :meth:`_attach_endpoints` — injection, then ejection, per endpoint.

    The plane's only runtime state of its own is the per-(src, dst)
    injection sequence stream of adaptive planes; everything else lives
    on the registered components.
    """

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
        shard_plan: Optional[ShardPlan] = None,
        shard_ownership: Optional[ShardOwnership] = None,
    ) -> None:
        self.sim, self.topology, self.name = sim, topology, name
        self.mode, self.routing = mode, routing
        self.flit_payload_bits = flit_payload_bits
        self.buffer_capacity = buffer_capacity
        self.packetizer = Packetizer(flit_payload_bits, packet_format)
        self.link_spec = link_spec or LinkSpec()
        self.endpoint_link_spec = endpoint_link_spec or LinkSpec()
        self.fabric_domain = fabric_domain
        self.endpoint_domains = dict(endpoint_domains or {})
        self._shard_plan, self._shard_ownership = shard_plan, shard_ownership
        self.arbiter = arbiter
        self._check_options(vcs, vc_policy)
        self.links: List[Union[PhysicalLink, VcPhysicalLink]] = []
        self._add_routers(arbiter, lock_support)
        self._add_router_links()
        self._attach_endpoints(endpoint_queue_capacity)

    # ------------------------------------------------------------------ #
    # assembly steps
    # ------------------------------------------------------------------ #
    def _check_options(self, vcs: int, vc_policy):
        """:data:`PLANE_ROWS`, then the shard plan's own validation; sets
        the resolved ``vcs`` and VC policy.  A bare ``routing="adaptive"``
        is the minimal split: the escape policy and, at ``vcs=1``, one
        adaptive VC on top of the escape pair."""
        adaptive = self.routing == "adaptive"
        self.vcs = 1 + EscapeVcPolicy.escape_vcs if adaptive and vcs == 1 else vcs
        self.vc_policy = "escape" if adaptive and vc_policy is None else vc_policy
        check(self.name, self, PLANE_ROWS)
        self.vc_policy = make_vc_policy(self.vc_policy)
        if self._shard_plan is not None:
            self._shard_plan.validate(self.topology)

    def _add_routers(self, arbiter: str, lock_support: bool) -> None:
        """One router per topology router, in the topology's canonical
        order."""
        tables, adaptive = plane_tables(self.topology, self.routing)
        self.routers: Dict[Hashable, Router] = {}
        for router_id in self.topology.routers:
            router = Router(
                name=f"{self.name}.r{router_id}",
                router_id=router_id,
                table=tables[router_id],
                mode=self.mode,
                arbiter=make_arbiter(arbiter),
                lock_support=lock_support,
                vcs=self.vcs,
                vc_policy=self.vc_policy,
                adaptive_table=None if adaptive is None else adaptive[router_id],
            )
            router.set_clock_domain(self.fabric_domain)
            with self._own(router_id):
                self.sim.add(router)
            self.routers[router_id] = router

    def _add_router_links(self) -> None:
        """Router A's output "to:B" feeds router B's input "in:A": one
        link per direction, built per the link spec (a transparent spec
        degenerates to one shared queue per VC), or a boundary tx/rx pair
        where the shard plan cuts the edge (see repro.sim.shard)."""
        plan, domain = self._shard_plan, self.fabric_domain
        #: Boundary halves of cut inter-router links, keyed (src, dst).
        self.boundary_tx: Dict[tuple, ShardLinkTx] = {}
        self.boundary_rx: Dict[tuple, ShardLinkRx] = {}
        for a, b in self.topology.links:
            for src, dst in ((a, b), (b, a)):
                qname = f"{self.name}.link.{src}->{dst}"
                cut = plan is not None and plan.shard_of(src) != plan.shard_of(dst)
                if cut:
                    feeds, deliveries = self._build_boundary(qname, src, dst)
                else:
                    with self._own(src):
                        feeds, deliveries = self._build_link(
                            qname, self.link_spec, domain, domain
                        )
                out_port, in_port = port_to(dst), f"in:{src}"
                for vc in range(self.vcs):
                    self.routers[src].add_output(
                        out_port, feeds[vc], vc=vc, neighbor=dst
                    )
                    self.routers[dst].add_input(
                        in_port, deliveries[vc], vc=vc, neighbor=src
                    )

    def _attach_endpoints(self, endpoint_queue_capacity: int) -> None:
        """Injection + ejection per endpoint, in endpoint order.  Adaptive
        route choice is per packet, so one (source, dest) pair's packets
        can arrive out of order; the transaction layer is built on
        per-pair FIFO delivery, so adaptive planes stamp a per-pair
        sequence number at injection and resequence at ejection (see
        EjectionPort).  Deterministic planes skip both."""
        self._sequenced = self.routing == "adaptive"
        self._pair_seq: Dict[Tuple[int, int], int] = {}
        self._inject_queues: Dict[int, SimQueue] = {}
        self._eject_queues: Dict[int, SimQueue] = {}
        self.injection_ports: Dict[int, InjectionPort] = {}
        self.ejection_ports: Dict[int, EjectionPort] = {}
        for endpoint in self.topology.endpoints:
            with self._own(self.topology.router_of(endpoint)):
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
        inj_port = f"inj:{endpoint}"
        for vc in range(self.vcs):
            router.add_input(inj_port, inj_deliveries[vc], vc=vc, order=endpoint)
        port = InjectionPort(
            f"{name}.inj.{endpoint}",
            endpoint,
            self.packetizer,
            sim.packet_ids,
            inj_packets,
            inj_feeds,
            vc_policy=self.vc_policy,
        )
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
        ej_port = port_local(endpoint)
        for vc in range(self.vcs):
            router.add_output(ej_port, ej_feeds[vc], vc=vc, order=endpoint)
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
            tx.set_clock_domain(self.fabric_domain)
            self.sim.add(tx)
        with self._own(dst):
            deliveries = [
                self.sim.new_queue(n, capacity=capacity) for n in names
            ]
            rx = ShardLinkRx(f"{qname}.phy.rx", deliveries)
            rx.set_clock_domain(self.fabric_domain)
            self.sim.add(rx)
        tx.bind_peer(rx)
        rx.bind_peer(tx)
        self.boundary_tx[(src, dst)] = tx
        self.boundary_rx[(src, dst)] = rx
        return feeds, deliveries

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
        single = vcs == 1  # one VC: the plain link, on the one queue pair
        link = (PhysicalLink if single else VcPhysicalLink)(
            f"{qname}.phy",
            feeds[0] if single else feeds,
            deliveries[0] if single else deliveries,
            flit_bits=flit_bits,
            phit_bits=spec.phit_bits or flit_bits,
            pipeline_latency=spec.pipeline_latency,
            producer_domain=producer_domain,
            consumer_domain=consumer_domain,
            sync_stages=spec.sync_stages,
        )
        self.sim.add(link)
        self.links.append(link)
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
            flits = flit_count(packet, self.flit_payload_bits)
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
        """Drained (drain detection): no packet waits in an injection or
        ejection packet queue, and every packet the injection ports took
        in has come out of an ejection port.  A flit anywhere between the
        two — router buffer, link, reassembler, reorder buffer, shard
        boundary — belongs to a packet the count still holds, and a
        packet lost on the way keeps the plane busy for good."""
        for queue in self._inject_queues.values():
            if queue.occupancy:
                return False
        for queue in self._eject_queues.values():
            if queue.occupancy:
                return False
        injected = sum(p.packets_injected for p in self.injection_ports.values())
        ejected = sum(p.packets_ejected for p in self.ejection_ports.values())
        return injected == ejected


class Fabric:
    """The request plane and the response plane: two :class:`Network`\\ s
    built from one set of plane options (``**plane_options`` are
    :class:`Network`'s keywords, defaults included), the request plane
    first, so its components register — and tick — first.

    This is the object NIUs bind to.  It also exposes the transaction-
    layer packet format in force, because the paper's configuration flow
    derives the format from the attached sockets and hands it to every
    NIU.
    """

    def __init__(
        self, sim: Simulator, topology: Topology, name: str = "noc", **plane_options
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.name = name
        self.packet_format = plane_options.get("packet_format")
        self.request_plane = Network(sim, topology, f"{name}.req", **plane_options)
        self.response_plane = Network(sim, topology, f"{name}.rsp", **plane_options)
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
        return [link for plane in self._planes for link in plane.links]

    def total_phits_carried(self) -> int:
        return sum(link.phits_carried for link in self.physical_links)

    def total_flits_forwarded(self) -> int:
        return sum(plane.total_flits_forwarded() for plane in self._planes)

    def total_lock_stall_cycles(self) -> int:
        return sum(plane.total_lock_stall_cycles() for plane in self._planes)
