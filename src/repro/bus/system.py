"""Assemble a complete Fig-2 system: masters + bridges + shared bus.

Takes the *same* :class:`~repro.soc.config.InitiatorSpec` /
:class:`~repro.soc.config.TargetSpec` lists as the NoC builder and goes
through its spec checks, address map, traffic-source hand-out and master
construction, so benchmark E1 runs identical IP and workloads on both
architectures.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bus.bridge import Bridge
from repro.bus.shared_bus import SharedBus
from repro.core.address_map import AddressMap
from repro.protocols.base import ProtocolMaster
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.soc.builder import (
    BuiltSoc,
    add_master,
    build_address_map,
    check_specs,
    hand_out_source,
    mark_attached,
    spec_label,
)
from repro.soc.config import InitiatorSpec, TargetSpec


class BusSoc(BuiltSoc):
    """A built, runnable bridged-bus system (mirrors :class:`NocSoc`)."""

    def __init__(
        self,
        sim: Simulator,
        bus: SharedBus,
        address_map: AddressMap,
        masters: Dict[str, ProtocolMaster],
        bridges: Dict[str, Bridge],
    ) -> None:
        self.sim = sim
        self.bus = bus
        self.address_map = address_map
        self.masters = masters
        self.bridges = bridges

    def quiescent(self) -> bool:
        return (
            all(m.finished() for m in self.masters.values())
            and all(b.idle() for b in self.bridges.values())
            and self.bus.idle()
        )

    def run_to_completion(self, max_cycles: int = 500_000) -> int:
        return self.sim.run_until(self.quiescent, max_cycles=max_cycles)


#: Spec fields the bus has no model for (clock regions, NIU tag policies,
#: memory beat timing and error windows): set, each is refused by name
#: rather than silently ignored.
NOT_MODELLED = {
    InitiatorSpec: ("region", "policy"),
    TargetSpec: ("region", "per_beat_cycles", "error_ranges"),
}


def build_bus_soc(
    initiators: List[InitiatorSpec],
    targets: List[TargetSpec],
    arbitration: str = "rr",
    bridge_latency: int = 2,
    max_burst_beats: int = 16,
    trace: Optional[Tracer] = None,
) -> BusSoc:
    """Build the Fig-2 baseline from the same specs as the NoC builder.

    Target ``i`` is bus slave ``i``; each master ticks before its bridge,
    and the bus after every bridge, so same-cycle requests are visible
    the next cycle (queues enforce this anyway; order is for
    determinism).  Ready sources are marked attached only as the build
    returns."""
    check_specs(initiators, targets)
    for spec in (*initiators, *targets):
        for field in NOT_MODELLED[type(spec)]:
            if getattr(spec, field):
                raise ValueError(
                    f"{spec_label(spec)}: the bus builder has no model for "
                    f"{field}={getattr(spec, field)!r}; build this spec "
                    f"with SocBuilder, or leave {field} unset"
                )
    sim = Simulator(trace=trace)
    address_map = build_address_map(targets, first_slave=0)
    bus = SharedBus(
        "bus", sim, address_map, arbitration=arbitration,
        max_burst_beats=max_burst_beats,
    )
    for index, spec in enumerate(targets):
        bus.add_target(
            spec.name,
            base=address_map.range_for_target(index)[0].base,
            size=spec.size,
            read_latency=spec.read_latency,
            write_latency=spec.write_latency,
            slv_addr=index,
        )
    masters: Dict[str, ProtocolMaster] = {}
    bridges: Dict[str, Bridge] = {}
    claimed: Dict[int, str] = {}
    for spec in initiators:
        master = add_master(spec, sim, hand_out_source(spec, claimed))
        bridge = Bridge(
            f"{spec.name}.bridge", master, spec.protocol, bus,
            latency=bridge_latency,
        )
        sim.add(bridge)
        masters[spec.name] = master
        bridges[spec.name] = bridge
    sim.add(bus)
    mark_attached(masters)
    return BusSoc(sim, bus, address_map, masters, bridges)
