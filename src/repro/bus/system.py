"""Assemble a complete Fig-2 system: masters + bridges + shared bus.

Takes the *same* :class:`~repro.soc.config.InitiatorSpec` /
:class:`~repro.soc.config.TargetSpec` lists as the NoC builder and goes
through its spec rows, address map, traffic-source hand-out and master
construction, so benchmark E1 runs identical IP and workloads on both
architectures.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional

from repro.bus.bridge import Bridge
from repro.bus.shared_bus import SharedBus
from repro.core.address_map import AddressMap
from repro.core.checks import Check, check, knob
from repro.ip.slaves import Memory
from repro.protocols.base import ProtocolMaster
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.soc.builder import (
    SOURCE_ROWS,
    SPEC_ROWS,
    BuiltSoc,
    add_master,
    build_address_map,
    hand_out,
    spec_label,
)
from repro.soc.config import InitiatorSpec, TargetSpec


@dataclass(eq=False)
class BusSoc(BuiltSoc):
    """A built, runnable bridged-bus system (mirrors :class:`NocSoc`)."""

    sim: Simulator
    bus: SharedBus
    address_map: AddressMap
    masters: Dict[str, ProtocolMaster]
    bridges: Dict[str, Bridge]

    @property
    def memories(self) -> Dict[str, Memory]:
        """The bus's memories by target name."""
        return {r.name: self.bus.targets[r.slv_addr] for r in self.address_map.ranges()}

    def quiescent(self) -> bool:
        return (
            all(m.finished() for m in self.masters.values())
            and all(b.idle() for b in self.bridges.values())
            and self.bus.idle()
        )

    def run_to_completion(self, max_cycles: int = 500_000) -> int:
        return self.sim.run_until(self.quiescent, max_cycles=max_cycles)


def _not_modelled(side: str, field: str) -> Check:
    """The row refusing ``field`` set on any spec of ``side``."""
    def offender(s):
        return next((spec for spec in getattr(s, side) if getattr(spec, field)), None)

    return Check(
        f"{side[:-1]}_{field}", (field,), lambda s: offender(s) is None,
        lambda s: f"{spec_label(offender(s))}: the bus builder has no model "
                  f"for {field}={getattr(offender(s), field)!r}; build this "
                  f"spec with SocBuilder, or leave {field} unset",
    )


#: What :func:`build_bus_soc` refuses: the NoC builder's spec and source
#: rows, the spec fields the bus has no model for (clock regions and NIU
#: tag policies) — set, each is refused by name rather than silently
#: ignored — and its one knob out of range.
BUS_ROWS = (*SPEC_ROWS, *(_not_modelled(side, field) for side, field in (
    ("initiators", "region"), ("initiators", "policy"), ("targets", "region"),
)), *SOURCE_ROWS,
    knob("bridge_latency", lambda s: s.bridge_latency >= 0, ">= 0"),
)


def build_bus_soc(
    initiators: List[InitiatorSpec],
    targets: List[TargetSpec],
    bridge_latency: int = 2,
    trace: Optional[Tracer] = None,
) -> BusSoc:
    """Build the Fig-2 baseline from the same specs as the NoC builder.

    Target ``i`` is bus slave ``i``, a :class:`~repro.ip.slaves.Memory`
    built from the spec's fields as the NoC builder's memory device is.
    Each master ticks before its bridge, and the bus after every bridge,
    so same-cycle requests are visible the next cycle (queues enforce
    this anyway; order is for determinism).  :data:`BUS_ROWS` are checked,
    and the sources handed out, before anything is registered."""
    draft = SimpleNamespace(
        initiators=initiators, targets=targets, bridge_latency=bridge_latency,
    )
    check("bus", draft, BUS_ROWS)
    sources = hand_out(initiators)
    sim = Simulator(trace=trace)
    address_map = build_address_map(targets, first_slave=0)
    bus = SharedBus("bus", sim, address_map, {
        index: Memory(spec.size, spec.read_latency, spec.write_latency,
                      spec.per_beat_cycles, spec.error_ranges)
        for index, spec in enumerate(targets)
    })
    masters: Dict[str, ProtocolMaster] = {}
    bridges: Dict[str, Bridge] = {}
    for spec, source in zip(initiators, sources):
        master = add_master(spec, sim, source)
        bridge = Bridge(f"{spec.name}.bridge", master, bus, latency=bridge_latency)
        sim.add(bridge)
        masters[spec.name] = master
        bridges[spec.name] = bridge
    sim.add(bus)
    return BusSoc(sim, bus, address_map, masters, bridges)
