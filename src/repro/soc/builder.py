"""Build a Fig-1 style layered-NoC SoC from declarative specs.

The spec checks, the address map, the traffic-source hand-out and master
construction are module functions: the Fig-2 bus builder
(:func:`repro.bus.system.build_bus_soc`) assembles from the same specs
through the same four.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.address_map import AddressMap
from repro.core.layer import TransactionLayerConfig, build_layer_config
from repro.core.services import ExclusiveMonitor, LockManager, NocService
from repro.ip.slaves import MemoryDevice
from repro.ip.traffic import TrafficSpec, WorkloadStallError
from repro.niu.ahb_niu import AhbInitiatorNiu
from repro.niu.axi_niu import AxiInitiatorNiu
from repro.niu.base import InitiatorNiu, TargetNiu
from repro.niu.ocp_niu import OcpInitiatorNiu
from repro.niu.proprietary_niu import MsgInitiatorNiu
from repro.niu.vci_niu import VciInitiatorNiu
from repro.phys.clocking import ClockDomain, make_clock_domain
from repro.phys.link import LinkSpec
from repro.protocols.ahb import AhbMaster
from repro.protocols.axi import AxiMaster
from repro.protocols.base import ProtocolMaster, SlaveSocket
from repro.protocols.ocp import OcpMaster
from repro.protocols.proprietary import MsgMaster
from repro.protocols.vci import AvciMaster, BvciMaster, PvciMaster
from repro.sim.kernel import RunBudgetExceededError, Simulator
from repro.sim.stats import Histogram
from repro.sim.trace import Tracer
from repro.soc.config import InitiatorSpec, TargetSpec
from repro.transport import topology as topo_mod
from repro.transport.network import Fabric
from repro.transport.switching import SwitchingMode
from repro.transport.topology import Topology

#: Socket family → (master IP model, initiator NIU) classes; the bus
#: builder reads the master half.
MODELS = {
    "AHB": (AhbMaster, AhbInitiatorNiu),
    "AXI": (AxiMaster, AxiInitiatorNiu),
    "OCP": (OcpMaster, OcpInitiatorNiu),
    "PVCI": (PvciMaster, VciInitiatorNiu),
    "BVCI": (BvciMaster, VciInitiatorNiu),
    "AVCI": (AvciMaster, VciInitiatorNiu),
    "PROPRIETARY": (MsgMaster, MsgInitiatorNiu),
}


# --------------------------------------------------------------------- #
# what both builders share
# --------------------------------------------------------------------- #
def spec_label(spec: Union[InitiatorSpec, TargetSpec]) -> str:
    """``initiator 'name'`` or ``target 'name'``: how errors name a spec."""
    kind = "initiator" if isinstance(spec, InitiatorSpec) else "target"
    return f"{kind} {spec.name!r}"


def check_specs(
    initiators: Sequence[InitiatorSpec],
    targets: Sequence[TargetSpec],
    topology: Optional[Topology] = None,
) -> None:
    """The spec errors both builders raise before building anything: an
    empty side, two specs sharing a name (an endpoint's components and
    queues are named after its spec), and a topology without an endpoint
    for every spec (initiators take endpoints ``0..``, targets follow)."""
    if not initiators:
        raise ValueError("SoC needs at least one initiator")
    if not targets:
        raise ValueError("SoC needs at least one target")
    seen: Dict[str, Union[InitiatorSpec, TargetSpec]] = {}
    for spec in (*initiators, *targets):
        if spec.name in seen:
            raise ValueError(
                f"{spec_label(seen[spec.name])} and {spec_label(spec)} share "
                f"a name; every component and queue of an endpoint is named "
                f"after its spec"
            )
        seen[spec.name] = spec
    wanted = len(initiators) + len(targets)
    if topology is not None and any(
        endpoint not in topology.endpoint_router for endpoint in range(wanted)
    ):
        raise ValueError(
            f"topology {topology.name!r} has {len(topology.endpoint_router)} "
            f"endpoints but the SoC attaches {wanted} specs "
            f"({len(initiators)} initiators + {len(targets)} targets) to "
            f"endpoints 0..{wanted - 1}"
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


def hand_out_source(spec: InitiatorSpec, claimed: Dict[int, str]):
    """``spec``'s traffic source for this build: a
    :class:`~repro.ip.traffic.TrafficSpec` builds a fresh one; a ready
    source is stateful, so one attached to a built SoC's master, or
    already in ``claimed`` (source id → initiator name) by this build, is
    refused.  Nothing is marked here: :func:`mark_attached` does it as a
    build returns, so a build that raises leaves every source free."""
    source = spec.traffic
    if isinstance(source, TrafficSpec):
        source = source.build(spec.name)
    if source is None:
        raise ValueError(
            f"initiator {spec.name!r} has no traffic source — give "
            f"InitiatorSpec(traffic=...)"
        )
    taken_by = getattr(source, "_attached_master", None)
    if taken_by is None:
        taken_by = claimed.get(id(source))
    if taken_by is not None:
        raise ValueError(
            f"initiator {spec.name!r}: its traffic source is already "
            f"attached to master {taken_by!r}; sources are stateful "
            f"— give a TrafficSpec or a fresh source per build"
        )
    claimed[id(source)] = spec.name
    return source


def add_master(
    spec: InitiatorSpec, sim: Simulator, source, domain: Optional[ClockDomain] = None
) -> ProtocolMaster:
    """Register ``spec``'s master IP model around ``source``, in ``domain``
    (``None`` is the kernel reference clock)."""
    master_cls = MODELS[spec.protocol][0]
    master = master_cls(spec.name, sim, source, **spec.protocol_kwargs)
    master.set_clock_domain(domain)
    sim.add(master)
    return master


def mark_attached(masters: Dict[str, ProtocolMaster]) -> None:
    """Mark every master's source taken, as a build returns."""
    for master in masters.values():
        master.traffic._attached_master = master.name


class BuiltSoc:
    """What both builders return: a simulator and its masters by name
    (subclasses set ``sim`` and ``masters``), run and measured alike."""

    sim: Simulator
    masters: Dict[str, ProtocolMaster]

    def run(self, cycles: int) -> int:
        return self.sim.run(cycles)

    def master_latency(self, name: str) -> Dict[str, float]:
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


class NocSoc(BuiltSoc):
    """A built, runnable layered-NoC system."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        layer_config: TransactionLayerConfig,
        address_map: AddressMap,
        masters: Dict[str, ProtocolMaster],
        initiator_nius: Dict[str, InitiatorNiu],
        target_nius: Dict[str, TargetNiu],
        memories: Dict[str, MemoryDevice],
        shard_plan=None,
        shard_ownership=None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.layer_config = layer_config
        self.address_map = address_map
        self.masters = masters
        self.initiator_nius = initiator_nius
        self.target_nius = target_nius
        self.memories = memories
        # Sharded builds (SocBuilder(shards=...)): the partition and the
        # component/queue -> shard ownership map (None otherwise).
        self.shard_plan = shard_plan
        self.shard_ownership = shard_ownership

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
        SimulationError conditions (e.g. a partition watchdog).
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
    # state capture
    # ------------------------------------------------------------------ #
    snapshot_version = 1

    def snapshot(self) -> dict:
        """Capture the full runtime state of the SoC as one state tree.

        The tree holds *live references* into the running system; hand it
        to :class:`repro.sweep.checkpoint.Checkpoint` (one pickle of the
        tree, so all of it must pickle) before stepping the simulator again.
        Wiring is not captured — restore targets a congruently rebuilt SoC.
        """
        from repro.core.transaction import _txn_ids
        from repro.transport.flit import _flit_packet_ids

        if self.shard_plan is not None:
            from repro.sim.shard import ShardConfigError

            raise ShardConfigError(
                "snapshot/checkpoint of sharded builds is out of scope "
                "for v1: per-source id streams are not captured, so a "
                "restore would not replay byte-identically — build "
                "without shards= for checkpoint sweeps"
            )

        return {
            "__v__": type(self).snapshot_version,
            "cycle": self.sim.cycle,
            "id_counters": {
                "txn": _txn_ids.snapshot(),
                "flit": _flit_packet_ids.snapshot(),
            },
            "sim": self.sim.snapshot(),
            "planes": {
                plane.name: plane.snapshot() for plane in self.fabric._planes
            },
        }

    def restore(self, state: dict) -> None:
        """Restore a state tree captured by :meth:`snapshot` into this
        (congruently built, typically fresh) SoC.  The caller owns
        defensive copying; the tree's objects are adopted directly."""
        from repro.core.transaction import _txn_ids
        from repro.sim.snapshot import SnapshotVersionError
        from repro.transport.flit import _flit_packet_ids

        version = state.get("__v__")
        if version != type(self).snapshot_version:
            raise SnapshotVersionError(
                f"NocSoc snapshot version {version!r} != "
                f"{type(self).snapshot_version}"
            )
        _txn_ids.restore(state["id_counters"]["txn"])
        _flit_packet_ids.restore(state["id_counters"]["flit"])
        self.sim.restore(state["sim"])
        for plane in self.fabric._planes:
            plane.restore(state["planes"][plane.name])

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

    def memory_image(self) -> Dict[str, Dict[int, int]]:
        """Byte image of every memory (layer-independence fingerprint)."""
        return {
            name: mem.store.image() for name, mem in sorted(self.memories.items())
        }


class SocBuilder:
    """Accumulates specs, then :meth:`build`\\ s a :class:`NocSoc`.

    Fabric-level knobs (switching mode, flit width, arbiter, routing,
    topology) are all constructor parameters so benchmarks can sweep them
    while holding the IP and NIU configuration constant — the layering
    experiments depend on exactly that separation.

    Physical-layer knobs (all default to the ideal physical layer, which
    is cycle-identical to a build that never mentions them):

    - ``links`` — a :class:`~repro.phys.link.LinkSpec` applied to every
      inter-router connection, or a mapping with keys ``"router"``
      (inter-router links) and/or ``"endpoint"`` (NIU↔router links);
    - ``clock_domains`` — mapping of domain name to
      :class:`~repro.phys.clocking.ClockDomain`, integer divisor, or
      ``(divisor, phase)`` tuple; these are the names initiator/target
      ``region=`` fields and ``fabric_region`` refer to;
    - ``fabric_region`` — the clock domain the routers (and the fabric
      side of every link) run in; ``None`` = kernel reference clock.
      Endpoints whose region differs from the fabric's domain get CDC
      synchronizers folded into their links automatically.

    Transport-layer VC knobs (defaults are the single-VC fabric,
    cycle-identical to a build that never mentions them):

    - ``vcs`` — virtual channels per link (per plane);
    - ``vc_policy`` — a :class:`~repro.transport.routing.VcPolicy`
      instance or name (``"keep"``, ``"priority"``, ``"dateline"``,
      ``"escape"``); the dateline policy plus ``routing="dor"`` makes
      ring/torus wormhole fabrics deadlock-free with 2 VCs.

    Adaptive routing (``routing="adaptive"``): every hop may forward on
    any output of the minimal set, chosen per cycle by downstream
    congestion, with the top two VCs reserved as the deterministic
    escape subnetwork (DOR + dateline) that keeps the fabric
    deadlock-free — see :class:`~repro.transport.routing.EscapeVcPolicy`.
    ``vcs`` is the total, adaptive class plus the escape pair (left at
    1 it defaults to 3: one adaptive VC plus the pair).
    """

    _LINK_CLASSES = ("router", "endpoint")

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
        links: Optional[Union[LinkSpec, Dict[str, LinkSpec]]] = None,
        clock_domains: Optional[Dict[str, object]] = None,
        fabric_region: Optional[str] = None,
        vcs: int = 1,
        vc_policy=None,
        faults=None,
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
        # Deterministic fault schedule (PR 6): a
        # :class:`~repro.transport.faults.FaultSchedule` applied to every
        # plane of the fabric, validated at build time with named errors.
        self.faults = faults
        # Sharded fabric (PR 10): shards=N partitions the topology into N
        # contiguous stripes (plan_shards), shards=ShardPlan(...) gives
        # the partition explicitly.  The build is then annotated with
        # ownership metadata and per-source id streams so the same SoC
        # runs byte-identically in one process or across N worker
        # processes (repro.sweep.parallel).  Incompatible knobs (faults,
        # strict kernel, enabled tracer, transparent inter-router links)
        # raise ShardConfigError at build time.
        self.shards = shards
        self.initiators: List[InitiatorSpec] = []
        self.targets: List[TargetSpec] = []

    # ------------------------------------------------------------------ #
    def add_initiator(self, spec: InitiatorSpec) -> "SocBuilder":
        if any(s.name == spec.name for s in self.initiators):
            raise ValueError(f"duplicate initiator {spec.name!r}")
        self.initiators.append(spec)
        return self

    def add_target(self, spec: TargetSpec) -> "SocBuilder":
        if any(s.name == spec.name for s in self.targets):
            raise ValueError(f"duplicate target {spec.name!r}")
        self.targets.append(spec)
        return self

    # ------------------------------------------------------------------ #
    def build(self) -> NocSoc:
        """Assemble the SoC in six steps; each registers its components
        after the step before, and component order is tick order:
        :func:`check_specs`; :meth:`_regions` (clock domains);
        :meth:`_shard_context` (``shards=`` only); :meth:`_fabric` (the
        transaction-layer format from the socket set, then both transport
        planes); :meth:`_attach_initiators` (each master, then its NIU);
        :meth:`_attach_targets` (each target NIU, then its memory).  Ready
        sources are marked attached only as the build returns."""
        topology = self.topology or self._default_topology(
            len(self.initiators) + len(self.targets)
        )
        check_specs(self.initiators, self.targets, topology)
        sim = Simulator(trace=self.trace, strict=self.strict_kernel)
        fabric_domain, endpoint_domains = self._regions()
        plan, ownership, scope = self._shard_context(sim, topology)
        layer_config, fabric = self._fabric(
            sim, topology, fabric_domain, endpoint_domains, plan, ownership
        )
        address_map = build_address_map(self.targets, len(self.initiators))
        masters, initiator_nius = self._attach_initiators(
            fabric, address_map, endpoint_domains, scope
        )
        target_nius, memories = self._attach_targets(
            fabric, layer_config, endpoint_domains, scope
        )
        soc = NocSoc(
            sim, fabric, layer_config, address_map, masters, initiator_nius,
            target_nius, memories, shard_plan=plan, shard_ownership=ownership,
        )
        if plan is not None:
            self._install_shard_id_streams(soc)
        mark_attached(masters)
        return soc

    # ------------------------------------------------------------------ #
    # build steps
    # ------------------------------------------------------------------ #
    def _default_topology(self, endpoints: int) -> Topology:
        width = max(2, math.ceil(math.sqrt(endpoints)))
        height = max(2, math.ceil(endpoints / width))
        return topo_mod.mesh(width, height, endpoints=endpoints)

    def _regions(self) -> Tuple[Optional[ClockDomain], Dict[int, ClockDomain]]:
        """The fabric's clock domain and each endpoint's that names a
        region (endpoints: the initiators, then the targets); an
        undeclared region is a ValueError naming its owner."""
        domains = {
            name: make_clock_domain(name, value)
            for name, value in (self.clock_domains or {}).items()
        }
        fabric_domain = self._domain_for(self.fabric_region, domains, "fabric")
        endpoint_domains: Dict[int, ClockDomain] = {}
        for endpoint, spec in enumerate([*self.initiators, *self.targets]):
            domain = self._domain_for(spec.region, domains, spec_label(spec))
            if domain is not None:
                endpoint_domains[endpoint] = domain
        return fabric_domain, endpoint_domains

    def _domain_for(
        self,
        region: Optional[str],
        domains: Dict[str, ClockDomain],
        owner: str,
    ) -> Optional[ClockDomain]:
        if region is None:
            return None
        try:
            return domains[region]
        except KeyError:
            raise ValueError(
                f"{owner}: unknown clock region {region!r}; declared "
                f"domains: {sorted(domains) or '(none)'}"
            ) from None

    def _shard_context(self, sim: Simulator, topology: Topology):
        """``(plan, ownership, scope)`` of a ``shards=`` build: the
        partition, the component/queue → shard recorder, and
        ``scope(endpoint)``, which records what an endpoint registers to
        its router's shard.  Without ``shards=``: ``(None, None, a no-op
        scope)``.  Everything sharding adds to a build is here and in
        :meth:`_install_shard_id_streams`."""
        if self.shards is None:
            return None, None, lambda endpoint: nullcontext()
        from repro.sim.shard import (
            ShardConfigError,
            ShardOwnership,
            ShardPlan,
            plan_shards,
        )

        if sim.strict:
            raise ShardConfigError(
                "the strict reference kernel cannot drive sharded "
                "builds (strict_kernel=True or REPRO_SIM_STRICT): it "
                "ticks every component every cycle, which the "
                "activity-driven round protocol does not reproduce — "
                "drop strict_kernel or shards"
            )
        if sim.trace.enabled:
            raise ShardConfigError(
                "tracing is out of scope for sharded builds (v1): "
                "per-shard event streams have no global order to "
                "merge under — disable the tracer or drop shards"
            )
        if isinstance(self.shards, ShardPlan):
            plan = self.shards
        else:
            plan = plan_shards(topology, int(self.shards))
        ownership = ShardOwnership(sim, plan.n_shards)

        def scope(endpoint: int):
            return ownership.owned_by(plan.shard_of(topology.router_of(endpoint)))

        return plan, ownership, scope

    def _resolve_links(self) -> Dict[str, Optional[LinkSpec]]:
        """Normalize the ``links=`` knob to {"router": spec, "endpoint": spec}."""
        resolved: Dict[str, Optional[LinkSpec]] = {
            cls: None for cls in self._LINK_CLASSES
        }
        if self.links is None:
            return resolved
        if isinstance(self.links, LinkSpec):
            resolved["router"] = self.links
            return resolved
        for cls, spec in self.links.items():
            if cls not in self._LINK_CLASSES:
                raise ValueError(
                    f"links: unknown link class {cls!r}; known: "
                    f"{self._LINK_CLASSES}"
                )
            if not isinstance(spec, LinkSpec):
                raise ValueError(f"links[{cls!r}]: expected a LinkSpec")
            resolved[cls] = spec
        return resolved

    def _fabric(
        self, sim, topology, fabric_domain, endpoint_domains, plan, ownership
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
        link_specs = self._resolve_links()
        fabric = Fabric(
            sim,
            topology,
            name=self.name,
            mode=self.mode,
            flit_payload_bits=self.flit_payload_bits,
            buffer_capacity=self.buffer_capacity,
            arbiter=self.arbiter,
            packet_format=layer_config.packet_format,
            routing=self.routing,
            lock_support=lock_support,
            link_spec=link_specs["router"],
            endpoint_link_spec=link_specs["endpoint"],
            fabric_domain=fabric_domain,
            endpoint_domains=endpoint_domains,
            vcs=self.vcs,
            vc_policy=self.vc_policy,
            faults=self.faults,
            shard_plan=plan,
            shard_ownership=ownership,
        )
        return layer_config, fabric

    def _attach_initiators(self, fabric, address_map, endpoint_domains, scope):
        """Endpoint ``i`` is initiator ``i``: its traffic source, its
        master IP, then its NIU, both in the endpoint's clock domain."""
        sim = fabric.sim
        masters: Dict[str, ProtocolMaster] = {}
        nius: Dict[str, InitiatorNiu] = {}
        claimed: Dict[int, str] = {}
        for endpoint, spec in enumerate(self.initiators):
            source = hand_out_source(spec, claimed)
            domain = endpoint_domains.get(endpoint)
            with scope(endpoint):
                master = add_master(spec, sim, source, domain)
                niu_cls = MODELS[spec.protocol][1]
                # One NIU class serves the three VCI families.
                vci = {"flavor": spec.protocol} if niu_cls is VciInitiatorNiu else {}
                niu = niu_cls(
                    f"{spec.name}.niu", fabric, endpoint, address_map,
                    master.socket, policy=spec.policy, **vci,
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
                monitor = (
                    ExclusiveMonitor(name=f"{spec.name}.monitor")
                    if NocService.EXCLUSIVE_ACCESS in services
                    else None
                )
                locks = (
                    LockManager(name=f"{spec.name}.locks")
                    if NocService.LEGACY_LOCK in services
                    else None
                )
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
        """Give every id-allocating component its own id stream, then
        check that every component and queue has a shard owner.

        A single-process run interleaves all sources on the process
        globals (``transaction._txn_ids`` / ``flit._flit_packet_ids``);
        worker processes only run their own sources, so the allocation
        interleaving — and with it the id *values*, which leak into
        behavior through protocol id truncation (VCI's 8-bit pktid) —
        would differ.  Scoped streams make allocation a per-source
        affair: identical values whether the sources run together or
        apart.  Streams are a pure function of the build (endpoint and
        port order), so every process derives the same ones.
        """
        from repro.sim.shard import (
            scope_packet_ids,
            scope_txn_ids,
            txn_id_stream,
        )

        for endpoint, spec in enumerate(self.initiators):
            stream = txn_id_stream(endpoint)
            # Master and its NIU share the endpoint's stream: both
            # allocate on behalf of the same source.
            scope_txn_ids(soc.masters[spec.name], stream)
            scope_txn_ids(soc.initiator_nius[spec.name], stream)
        n_init = len(self.initiators)
        for index, spec in enumerate(self.targets):
            stream = txn_id_stream(n_init + index)
            scope_txn_ids(soc.target_nius[spec.name], stream)
            scope_txn_ids(soc.memories[spec.name], stream)
        scope = len(self.initiators) + len(self.targets)
        for plane in soc.fabric._planes:
            for endpoint in sorted(plane.injection_ports):
                scope_packet_ids(
                    plane.injection_ports[endpoint], txn_id_stream(scope)
                )
                scope += 1
        soc.shard_ownership.finalize()
