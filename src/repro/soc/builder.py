"""Build a Fig-1 style layered-NoC SoC from declarative specs.

The spec rows, the address map, the traffic-source hand-out and its rows
and master construction are shared: the Fig-2 bus builder
(:func:`repro.bus.system.build_bus_soc`) assembles from the same specs
through the same code.  Every build-time refusal is a row
(:mod:`repro.core.checks`), checked before anything is registered.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.address_map import AddressMap
from repro.core.checks import Check, check, knob
from repro.core.layer import TransactionLayerConfig, build_layer_config
from repro.core.services import ExclusiveMonitor, LockManager, NocService
from repro.ip.slaves import MemoryDevice
from repro.ip.traffic import TrafficSpec, WorkloadStallError
from repro.niu.base import InitiatorNiu, TargetNiu
from repro.phys.clocking import ClockDomain, make_clock_domain
from repro.phys.link import LinkSpec
from repro.protocols.ahb import AhbMaster
from repro.protocols.axi import AxiMaster
from repro.protocols.base import ProtocolMaster, SlaveSocket
from repro.protocols.ocp import OcpMaster
from repro.protocols.proprietary import MsgMaster
from repro.protocols.vci import AvciMaster, BvciMaster, PvciMaster
from repro.sim.kernel import RunBudgetExceededError, Simulator
from repro.sim.shard import ShardConfigError, ShardOwnership, ShardPlan, plan_shards
from repro.sim.stats import Histogram
from repro.sim.trace import Tracer
from repro.soc.config import InitiatorSpec, TargetSpec
from repro.transport import topology as topo_mod
from repro.transport.network import Fabric
from repro.transport.switching import SwitchingMode
from repro.transport.topology import Topology

#: Socket family → its master IP model class, which names the family's
#: native side; one :class:`InitiatorNiu` serves them all.
MODELS = {
    master.protocol_name: master
    for master in (
        AhbMaster, AxiMaster, OcpMaster, PvciMaster, BvciMaster, AvciMaster,
        MsgMaster,
    )
}


# --------------------------------------------------------------------- #
# what both builders share
# --------------------------------------------------------------------- #
def spec_label(spec: Union[InitiatorSpec, TargetSpec]) -> str:
    """``initiator 'name'`` or ``target 'name'``: how errors name a spec."""
    kind = "initiator" if isinstance(spec, InitiatorSpec) else "target"
    return f"{kind} {spec.name!r}"


def _shared_name(s) -> Optional[Tuple[str, str]]:
    """The labels of the first two specs sharing a name, or ``None``."""
    seen: Dict[str, Union[InitiatorSpec, TargetSpec]] = {}
    for spec in (*s.initiators, *s.targets):
        if spec.name in seen:
            return spec_label(seen[spec.name]), spec_label(spec)
        seen[spec.name] = spec
    return None


def _specless(s) -> Optional[str]:
    """The first initiator whose traffic is not a spec, or ``None``."""
    return next((spec.name for spec in s.initiators
                 if not isinstance(spec.traffic, TrafficSpec)), None)


def _redeclared(s) -> Optional[Tuple[str, str, int, int]]:
    """``(initiator, channel, initial, first initial)``: the first stream
    channel declared under one name with two ``initial`` token counts."""
    initial: Dict[str, int] = {}
    for spec in s.initiators:
        program = spec.traffic.program if spec.traffic.kind == "dma" else None
        for desc in program or ():
            # An entry that is no descriptor is the engine's to refuse.
            for channel in getattr(desc, "wait", ()) + getattr(desc, "signal", ()):
                first = initial.setdefault(channel.name, channel.initial)
                if first != channel.initial:
                    return spec.name, channel.name, channel.initial, first
    return None


#: What both builders refuse first: an empty side, two specs sharing a name
#: (an endpoint's components and queues are named after its spec).
SPEC_ROWS = (
    Check("initiators", ("initiators",), lambda s: bool(s.initiators),
          lambda s: "SoC needs at least one initiator"),
    Check("targets", ("targets",), lambda s: bool(s.targets),
          lambda s: "SoC needs at least one target"),
    Check("names", ("initiators", "targets"), lambda s: not _shared_name(s),
          lambda s: "{} and {} share a name; every component and queue of an "
                    "endpoint is named after its spec".format(*_shared_name(s))),
)

#: The source hand-out's rows, on both builders (:func:`hand_out`).
SOURCE_ROWS = (
    Check("traffic", ("traffic",), lambda s: _specless(s) is None,
          lambda s: f"initiator {_specless(s)!r} has no traffic spec — give "
                    f"InitiatorSpec(traffic=TrafficSpec(...))"),
    Check("channels", ("traffic",), lambda s: _redeclared(s) is None,
          lambda s: "initiator {!r}: channel {!r} is declared with initial={} "
                    "but was declared with initial={}; a channel name is one "
                    "channel".format(*_redeclared(s))),
)


def build_address_map(targets: Sequence[TargetSpec], first_slave: int) -> AddressMap:
    """Target ``i`` answers as slave ``first_slave + i``; a target without
    an explicit ``base`` packs after the highest range so far."""
    address_map = AddressMap()
    cursor = 0
    for slave, spec in enumerate(targets, start=first_slave):
        base = cursor if spec.base is None else spec.base
        try:
            address_map.add_range(base, spec.size, slv_addr=slave, name=spec.name)
        except ValueError as exc:
            # Aliased targets are a spec bug: name the offender so the fix
            # points at the TargetSpec, not the map internals.
            raise ValueError(
                f"target {spec.name!r}: explicit base {base:#x} aliases an "
                f"already-assigned range in the address map ({exc})"
            ) from exc
        cursor = max(cursor, base + spec.size)
    return address_map


def hand_out(initiators: Sequence[InitiatorSpec]) -> list:
    """Each initiator's source, fresh from its spec (:data:`SOURCE_ROWS`
    check them), so one spec serves any number of builds."""
    return [spec.traffic.build(spec.name) for spec in initiators]


def add_master(
    spec: InitiatorSpec, sim: Simulator, source, domain: Optional[ClockDomain] = None
) -> ProtocolMaster:
    """Register ``spec``'s master IP model around ``source``, in ``domain``
    (``None`` is the kernel reference clock)."""
    master = MODELS[spec.protocol](spec.name, sim, source, **spec.protocol_kwargs)
    master.set_clock_domain(domain)
    sim.add(master)
    return master


class BuiltSoc:
    """What both builders return: a simulator, its masters and its
    memories by name (subclasses set ``sim``, ``masters`` and
    ``memories``), run and measured alike."""

    def run(self, cycles: int) -> int:
        return self.sim.run(cycles)

    def master_latency(self, name: str) -> Dict[str, float]:
        """Master ``name``'s request→response latency summary.  A name
        that is not a master raises ``KeyError`` and registers nothing."""
        if name not in self.masters:
            raise KeyError(
                f"no master named {name!r}; masters: {sorted(self.masters)}"
            )
        return self.sim.stats.latency(f"{name}.txn").histogram.summary()

    def aggregate_latency(self) -> Dict[str, float]:
        merged = Histogram("all-masters")
        for name in self.masters:
            merged.merge(self.sim.stats.latency(f"{name}.txn").histogram)
        return merged.summary()

    def total_completed(self) -> int:
        return sum(m.completed for m in self.masters.values())

    def ordering_violations(self) -> int:
        return sum(len(m.checker.violations) for m in self.masters.values())

    def memory_image(self) -> Dict[str, Tuple[str, str]]:
        """Every memory's :meth:`~repro.ip.slaves.ByteStore.image`, by
        name: two hex strings per memory (the layer-independence
        fingerprint)."""
        return {
            name: mem.store.image() for name, mem in sorted(self.memories.items())
        }


@dataclass(eq=False)
class NocSoc(BuiltSoc):
    """A built, runnable layered-NoC system."""

    sim: Simulator
    fabric: Fabric
    layer_config: TransactionLayerConfig
    address_map: AddressMap
    masters: Dict[str, ProtocolMaster]
    initiator_nius: Dict[str, InitiatorNiu]
    target_nius: Dict[str, TargetNiu]
    memories: Dict[str, MemoryDevice]
    # shards= builds only: the partition and the component/queue -> shard map
    shard_plan: Optional[ShardPlan] = None
    shard_ownership: Optional[ShardOwnership] = None

    # ------------------------------------------------------------------ #
    def quiescent(self) -> bool:
        """All traffic drained everywhere."""
        return (
            all(m.finished() for m in self.masters.values())
            and self.fabric.idle()
            and all(m.idle() for m in self.memories.values())
            and all(t.outstanding == 0 for t in self.target_nius.values())
        )

    def run_to_completion(self, max_cycles: int = 200_000) -> int:
        """Run until every master's traffic fully completes.

        If the cycle budget elapses with at least one master's traffic
        unfinished, the bare kernel timeout is converted into a
        :class:`~repro.ip.traffic.WorkloadStallError` carrying every
        stuck source's own diagnosis (sources may implement
        ``diagnose_stall()`` — DMA engines name the halted/starved
        descriptor).  A timeout with all traffic retired — something
        stuck below the masters — re-raises untouched, as do the other
        SimulationError conditions.
        """
        try:
            return self.sim.run_until(self.quiescent, max_cycles=max_cycles)
        except RunBudgetExceededError as exc:
            reasons = []
            for name, master in sorted(self.masters.items()):
                if master.finished():
                    continue
                diagnose = getattr(master.traffic, "diagnose_stall", None)
                reason = diagnose() if diagnose is not None else None
                if reason is None:
                    reason = (
                        f"{name}: {master.outstanding} outstanding, "
                        f"pending intent="
                        f"{'yes' if master._pending is not None else 'no'}, "
                        f"traffic done={master.traffic.done()}"
                    )
                reasons.append(reason)
            if not reasons:
                raise
            raise WorkloadStallError(
                f"run_to_completion budget of {max_cycles} cycles elapsed "
                f"with stuck workload traffic: " + " | ".join(reasons)
            ) from exc

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def flow_stats(self) -> Dict[str, Dict[str, Dict[str, Dict[str, float]]]]:
        """Per-flow latency percentiles — the fabric's SLA surface.

        Every delivered packet's injection-to-delivery latency (in kernel
        cycles, stamped at segmentation) is recorded by the ejection
        ports; this groups the histograms per direction::

            {"request"|"response": {
                "priority": {prio: summary},          # per priority class
                "pairs": {"src->dst": summary},       # per endpoint pair
            }}

        Each ``summary`` is :meth:`Histogram.summary` — count/mean/min/
        p50/p95/p99/p999/max.
        """
        out: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
        registry = self.sim.stats._histograms
        for direction, plane in (
            ("request", self.fabric.request_plane),
            ("response", self.fabric.response_plane),
        ):
            prefix = f"{plane.name}.flow."
            by_prio: Dict[str, Dict[str, float]] = {}
            by_pair: Dict[str, Dict[str, float]] = {}
            for name in sorted(registry):
                if not name.startswith(prefix):
                    continue
                key = name[len(prefix):]
                summary = registry[name].summary()
                if key.startswith("prio"):
                    by_prio[key[4:]] = summary
                elif key.startswith("pair."):
                    by_pair[key[5:]] = summary
            out[direction] = {"priority": by_prio, "pairs": by_pair}
        return out


#: The connection classes ``links=`` may map to a :class:`LinkSpec`.
LINK_CLASSES = ("router", "endpoint")
#: The builder options each transport plane takes under the same name.
PLANE_KNOBS = ("mode", "flit_payload_bits", "buffer_capacity", "arbiter", "routing",
               "vcs", "vc_policy")


def resolve_links(links) -> Dict[str, Optional[LinkSpec]]:
    """``links=`` with every class present: ``{"router": spec, "endpoint":
    spec}`` (``None``: the ideal wire)."""
    return {cls: (links or {}).get(cls) for cls in LINK_CLASSES}


def _undeclared(s) -> Optional[Tuple[str, str]]:
    """``(owner, region)``: the first clock region no domain declares."""
    for spec in (None, *s.initiators, *s.targets):
        region = s.fabric_region if spec is None else spec.region
        if region is not None and region not in (s.clock_domains or {}):
            return "fabric" if spec is None else spec_label(spec), region
    return None


#: What :meth:`SocBuilder.build` refuses, in order, before it registers
#: anything (the plane options are :data:`~repro.transport.network.PLANE_ROWS`).
#: The last three rows are sharding's, one block that leaves with it.
BUILD_ROWS = (
    *SPEC_ROWS,
    Check("endpoints", ("topology",),
          lambda s: all(ep in s.topology.endpoint_router
                        for ep in range(len(s.initiators) + len(s.targets))),
          lambda s: f"topology {s.topology.name!r} has "
                    f"{len(s.topology.endpoint_router)} endpoints but the SoC "
                    f"attaches {len(s.initiators) + len(s.targets)} specs "
                    f"({len(s.initiators)} initiators + {len(s.targets)} targets) "
                    f"to endpoints 0..{len(s.initiators) + len(s.targets) - 1}"),
    Check("regions", ("fabric_region", "region"), lambda s: not _undeclared(s),
          lambda s: "{}: unknown clock region {!r}; declared domains: ".format(
              *_undeclared(s)) + str(sorted(s.clock_domains or {}) or "(none)")),
    knob("links", lambda s: s.links is None or isinstance(s.links, dict),
         f"a mapping with keys from {LINK_CLASSES}"),
    Check("link_classes", ("links",), lambda s: s.links is None
          or all(cls in LINK_CLASSES for cls in s.links),
          lambda s: "links: unknown link class {!r}; known: {}".format(next(
              cls for cls in s.links if cls not in LINK_CLASSES), LINK_CLASSES)),
    Check("link_specs", ("links",), lambda s: s.links is None
          or all(isinstance(spec, LinkSpec) for spec in s.links.values()),
          lambda s: "links[{!r}]: expected a LinkSpec".format(next(
              cls for cls, spec in s.links.items() if not isinstance(spec, LinkSpec)))),
    *SOURCE_ROWS,
    Check("shards_strict", ("shards", "strict_kernel"),
          lambda s: s.shards is None or not s.sim.strict,
          lambda s: "the strict reference kernel cannot drive sharded builds "
                    "(strict_kernel=True or REPRO_SIM_STRICT): it ticks every "
                    "component every cycle, which the activity-driven round "
                    "protocol does not reproduce — drop strict_kernel or shards",
          ShardConfigError),
    Check("shards_trace", ("shards", "trace"),
          lambda s: s.shards is None or not s.sim.trace.enabled,
          lambda s: "tracing is out of scope for sharded builds (v1): per-shard "
                    "event streams have no global order to merge under — "
                    "disable the tracer or drop shards",
          ShardConfigError),
    Check("shards_links", ("shards", "links"), lambda s: s.shards is None
          or not s.plan.cut_edges(s.topology)
          or not (resolve_links(s.links)["router"] or LinkSpec()).transparent(False),
          lambda s: "the shard plan cuts inter-router links but the router link "
                    "spec is transparent (an ideal wire has zero lookahead, so "
                    "there is no safe window to parallelize over) — give the "
                    "inter-router links a LinkSpec with pipeline_latency >= 1 or "
                    "narrowed phits",
          ShardConfigError),
)


class SocBuilder:
    """Accumulates specs, then :meth:`build`\\ s a :class:`NocSoc`; what a
    build refuses is :data:`BUILD_ROWS` and the plane rows,
    :data:`repro.transport.network.PLANE_ROWS`.

    Fabric-level knobs (switching mode, flit width, arbiter, routing,
    topology) are all constructor parameters so benchmarks can sweep them
    while holding the IP and NIU configuration constant — the layering
    experiments depend on exactly that separation.

    Physical-layer knobs (all default to the ideal physical layer, which
    is cycle-identical to a build that never mentions them):

    - ``links`` — a mapping from ``"router"`` (inter-router links)
      and/or ``"endpoint"`` (NIU↔router links) to the
      :class:`~repro.phys.link.LinkSpec` every such connection gets;
    - ``clock_domains`` — mapping of domain name to an integer divisor
      or a ``(divisor, phase)`` tuple; these are the names
      initiator/target ``region=`` fields and ``fabric_region`` refer
      to;
    - ``fabric_region`` — the clock domain the routers (and the fabric
      side of every link) run in; ``None`` = kernel reference clock.
      Endpoints whose region differs from the fabric's domain get CDC
      synchronizers folded into their links automatically.

    Transport-layer VC knobs (defaults are the single-VC fabric,
    cycle-identical to a build that never mentions them):

    - ``vcs`` — virtual channels per link (per plane);
    - ``vc_policy`` — a :class:`~repro.transport.routing.VcPolicy`
      instance or name (``"keep"``, ``"dateline"``, ``"escape"``); the
      dateline policy plus ``routing="dor"`` makes ring/torus wormhole
      fabrics deadlock-free with 2 VCs.

    Adaptive routing (``routing="adaptive"``): every hop may forward on
    any output of the minimal set, chosen per cycle by downstream
    congestion, with the top two VCs reserved as the deterministic
    escape subnetwork (DOR + dateline) that keeps the fabric
    deadlock-free — see :class:`~repro.transport.routing.EscapeVcPolicy`.
    ``vcs`` is the total, adaptive class plus the escape pair (left at
    1 it defaults to 3: one adaptive VC plus the pair).
    """

    def __init__(
        self,
        name: str = "soc",
        mode: SwitchingMode = SwitchingMode.WORMHOLE,
        flit_payload_bits: int = 128,
        buffer_capacity: int = 8,
        arbiter: str = "priority",
        routing: str = "table",
        topology: Optional[Topology] = None,
        trace: Optional[Tracer] = None,
        transport_lock_support: Optional[bool] = None,
        strict_kernel: Optional[bool] = None,
        links: Optional[Dict[str, LinkSpec]] = None,
        clock_domains: Optional[Dict[str, Union[int, Tuple[int, int]]]] = None,
        fabric_region: Optional[str] = None,
        vcs: int = 1,
        vc_policy=None,
        shards=None,
    ) -> None:
        self.name = name
        self.mode = mode
        self.flit_payload_bits = flit_payload_bits
        self.buffer_capacity = buffer_capacity
        self.arbiter = arbiter
        self.routing = routing
        self.topology = topology
        self.trace = trace
        # None = derive from the socket set (LEGACY_LOCK service);
        # False = ablation: locks serialized at the target NIU only.
        self.transport_lock_support = transport_lock_support
        # None = activity-driven kernel (or REPRO_SIM_STRICT env);
        # True = brute-force tick-everything reference kernel.
        self.strict_kernel = strict_kernel
        self.links = links
        self.clock_domains = clock_domains
        self.fabric_region = fabric_region
        self.vcs = vcs
        self.vc_policy = vc_policy
        # Sharded fabric (PR 10): shards=N partitions the topology into N
        # contiguous stripes (plan_shards), shards=ShardPlan(...) gives
        # the partition explicitly.  The build is then annotated with
        # ownership metadata and per-source id streams so the same SoC
        # runs byte-identically in one process or across N worker
        # processes (repro.sweep.parallel).
        self.shards = shards
        self.initiators: List[InitiatorSpec] = []
        self.targets: List[TargetSpec] = []

    # ------------------------------------------------------------------ #
    def add_initiator(self, spec: InitiatorSpec) -> "SocBuilder":
        self.initiators.append(spec)
        return self

    def add_target(self, spec: TargetSpec) -> "SocBuilder":
        self.targets.append(spec)
        return self

    # ------------------------------------------------------------------ #
    def build(self) -> NocSoc:
        """Check :data:`BUILD_ROWS` against :meth:`_draft`, then assemble
        in steps that each register after the one before (component order
        is tick order): :meth:`_regions`; :meth:`_shard_context`;
        :meth:`_fabric` (the socket set's transaction-layer format, then
        both planes, whose rows fire before either registers anything);
        :meth:`_attach_initiators` (each master, then its NIU);
        :meth:`_attach_targets` (each target NIU, then its memory).  The
        sources are handed out after the rows, before anything registers."""
        sim = Simulator(trace=self.trace, strict=self.strict_kernel)
        draft = self._draft(sim)
        check(self.name, draft, BUILD_ROWS)
        sources = hand_out(self.initiators)
        address_map = build_address_map(self.targets, len(self.initiators))
        fabric_domain, endpoint_domains = self._regions()
        ownership, scope = self._shard_context(sim, draft)
        layer_config, fabric = self._fabric(
            sim, draft, fabric_domain, endpoint_domains, ownership
        )
        masters, initiator_nius = self._attach_initiators(
            fabric, address_map, endpoint_domains, scope, sources
        )
        target_nius, memories = self._attach_targets(
            fabric, layer_config, endpoint_domains, scope
        )
        soc = NocSoc(
            sim, fabric, layer_config, address_map, masters, initiator_nius,
            target_nius, memories, shard_plan=draft.plan, shard_ownership=ownership,
        )
        if draft.plan is not None:
            self._install_shard_id_streams(soc)
        return soc

    # ------------------------------------------------------------------ #
    # build steps
    # ------------------------------------------------------------------ #
    def _draft(self, sim: Simulator) -> SimpleNamespace:
        """What :data:`BUILD_ROWS` read: the knobs and specs, and what a
        build derives from them before registering anything — the
        simulator, the topology and the shard plan."""
        endpoints = len(self.initiators) + len(self.targets)
        width = max(2, math.ceil(math.sqrt(endpoints)))  # the default: a mesh
        topology = self.topology or topo_mod.mesh(
            width, max(2, math.ceil(endpoints / width)), endpoints=endpoints)
        plan = self.shards
        if plan is not None and not isinstance(plan, ShardPlan):
            plan = plan_shards(topology, int(plan))
        return SimpleNamespace(**{**vars(self), "sim": sim, "topology": topology,
                                  "plan": plan})

    def _regions(self) -> Tuple[Optional[ClockDomain], Dict[int, ClockDomain]]:
        """The fabric's clock domain and each endpoint's that names a
        region (endpoints: the initiators, then the targets)."""
        domains = {
            name: make_clock_domain(name, value)
            for name, value in (self.clock_domains or {}).items()
        }
        endpoint_domains = {
            endpoint: domains[spec.region]
            for endpoint, spec in enumerate([*self.initiators, *self.targets])
            if spec.region is not None
        }
        return domains.get(self.fabric_region), endpoint_domains

    def _shard_context(self, sim: Simulator, draft: SimpleNamespace):
        """``(ownership, scope)`` of a ``shards=`` build: the component/queue
        → shard recorder, and ``scope(endpoint)``, which records what an
        endpoint registers to its router's shard; ``(None, a no-op scope)``
        without ``shards=``."""
        plan, topology = draft.plan, draft.topology
        if plan is None:
            return None, lambda endpoint: nullcontext()
        ownership = ShardOwnership(sim, plan.n_shards)

        def scope(endpoint: int):
            return ownership.owned_by(plan.shard_of(topology.router_of(endpoint)))

        return ownership, scope

    def _fabric(
        self, sim, draft, fabric_domain, endpoint_domains, ownership
    ) -> Tuple[TransactionLayerConfig, Fabric]:
        """The transaction-layer configuration from the attached socket
        set — the paper's per-SoC customization step — then the fabric
        built to its packet format and lock service."""
        max_outstanding = max(
            (s.policy.max_outstanding for s in self.initiators if s.policy),
            default=8,
        )
        layer_config = build_layer_config(
            protocols=[s.protocol for s in self.initiators],
            initiators=len(self.initiators),
            targets=len(self.targets),
            max_outstanding=max(8, max_outstanding),
        )
        lock_support = self.transport_lock_support
        if lock_support is None:
            lock_support = NocService.LEGACY_LOCK in layer_config.services
        links = resolve_links(self.links)
        fabric = Fabric(
            sim, draft.topology, self.name,
            **{knob: getattr(self, knob) for knob in PLANE_KNOBS},
            packet_format=layer_config.packet_format, lock_support=lock_support,
            link_spec=links["router"], endpoint_link_spec=links["endpoint"],
            fabric_domain=fabric_domain, endpoint_domains=endpoint_domains,
            shard_plan=draft.plan, shard_ownership=ownership,
        )
        return layer_config, fabric

    def _attach_initiators(self, fabric, address_map, endpoint_domains, scope, sources):
        """Endpoint ``i`` is initiator ``i``: its master IP around its
        traffic source, then its NIU, both in the endpoint's clock domain."""
        sim = fabric.sim
        masters: Dict[str, ProtocolMaster] = {}
        nius: Dict[str, InitiatorNiu] = {}
        for endpoint, (spec, source) in enumerate(zip(self.initiators, sources)):
            domain = endpoint_domains.get(endpoint)
            with scope(endpoint):
                master = add_master(spec, sim, source, domain)
                niu = InitiatorNiu(
                    f"{spec.name}.niu", fabric, endpoint, address_map,
                    master.socket, policy=spec.policy,
                )
                niu.set_clock_domain(domain)
                sim.add(niu)
            masters[spec.name] = master
            nius[spec.name] = niu
        return masters, nius

    def _attach_targets(self, fabric, layer_config, endpoint_domains, scope):
        """Endpoint ``len(initiators) + i`` is target ``i``: its NIU (with
        an exclusive monitor and a lock manager when the socket set asks
        for those services), then its memory, both in the endpoint's
        clock domain."""
        sim, services = fabric.sim, layer_config.services
        target_nius: Dict[str, TargetNiu] = {}
        memories: Dict[str, MemoryDevice] = {}
        for endpoint, spec in enumerate(self.targets, start=len(self.initiators)):
            domain = endpoint_domains.get(endpoint)
            with scope(endpoint):
                socket = SlaveSocket(sim, f"{spec.name}.sock")
                monitor = (ExclusiveMonitor(name=f"{spec.name}.monitor")
                           if NocService.EXCLUSIVE_ACCESS in services else None)
                locks = (LockManager(name=f"{spec.name}.locks")
                         if NocService.LEGACY_LOCK in services else None)
                target_niu = TargetNiu(
                    f"{spec.name}.niu", fabric, endpoint, socket,
                    max_outstanding=spec.max_outstanding,
                    exclusive_monitor=monitor, lock_manager=locks,
                )
                target_niu.set_clock_domain(domain)
                sim.add(target_niu)
                memory = MemoryDevice(
                    spec.name,
                    socket,
                    size=spec.size,
                    read_latency=spec.read_latency,
                    write_latency=spec.write_latency,
                    per_beat_cycles=spec.per_beat_cycles,
                    error_ranges=spec.error_ranges,
                )
                memory.set_clock_domain(domain)
                sim.add(memory)
            target_nius[spec.name] = target_niu
            memories[spec.name] = memory
        return target_nius, memories

    def _install_shard_id_streams(self, soc: NocSoc) -> None:
        """Give every id-allocating object its own id stream, then check
        that every component and queue has a shard owner.

        An unsharded build's sources and injection ports all draw from
        the simulator's two streams, interleaved; a worker process only
        runs its own shard's, so the interleaving — and with it the id
        *values*, which leak into behavior through protocol id truncation
        (VCI's 8-bit pktid) — would differ.  Here each traffic source and
        each injection port gets a stream of its own: identical values
        whether they run together or apart.  Streams are a pure function
        of the build (endpoint and port order), so every process derives
        the same ones; ports count on from ``n_init + n_targets``.
        """
        from repro.sim.shard import txn_id_stream

        for endpoint, spec in enumerate(self.initiators):
            soc.masters[spec.name].traffic.txn_ids = txn_id_stream(endpoint)
        scope = len(self.initiators) + len(self.targets)
        for plane in soc.fabric._planes:
            for endpoint in sorted(plane.injection_ports):
                plane.injection_ports[endpoint].packet_ids = txn_id_stream(scope)
                scope += 1
        soc.shard_ownership.finalize()
