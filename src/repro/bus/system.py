"""Assemble a complete Fig-2 system: masters + bridges + shared bus.

Takes the *same* :class:`~repro.soc.config.InitiatorSpec` /
:class:`~repro.soc.config.TargetSpec` lists as the NoC builder, so
benchmark E1 runs identical IP and workloads on both architectures.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bus.bridge import Bridge
from repro.bus.shared_bus import SharedBus
from repro.core.address_map import AddressMap
from repro.ip.traffic import TrafficSpec
from repro.protocols.base import ProtocolMaster
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.soc.builder import MODELS
from repro.soc.config import InitiatorSpec, TargetSpec


class BusSoc:
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

    def run(self, cycles: int) -> int:
        return self.sim.run(cycles)

    def master_latency(self, name: str) -> Dict[str, float]:
        return self.sim.stats.latency(f"{name}.txn").histogram.summary()

    def aggregate_latency(self) -> Dict[str, float]:
        from repro.sim.stats import Histogram

        merged = Histogram("all-masters")
        for name in self.masters:
            merged.merge(self.sim.stats.latency(f"{name}.txn").histogram)
        return merged.summary()

    def total_completed(self) -> int:
        return sum(m.completed for m in self.masters.values())

    def ordering_violations(self) -> int:
        return sum(len(m.checker.violations) for m in self.masters.values())


def build_bus_soc(
    initiators: List[InitiatorSpec],
    targets: List[TargetSpec],
    arbitration: str = "rr",
    bridge_latency: int = 2,
    max_burst_beats: int = 16,
    trace: Optional[Tracer] = None,
) -> BusSoc:
    """Build the Fig-2 baseline from the same specs as the NoC builder."""
    if not initiators or not targets:
        raise ValueError("bus SoC needs at least one initiator and one target")
    sim = Simulator(trace=trace)

    address_map = AddressMap()
    cursor = 0
    for index, spec in enumerate(targets):
        base = spec.base if spec.base is not None else cursor
        try:
            address_map.add_range(
                base, spec.size, slv_addr=index, name=spec.name
            )
        except ValueError as exc:
            raise ValueError(
                f"target {spec.name!r}: explicit base {base:#x} aliases an "
                f"already-assigned range in the bus address map ({exc})"
            ) from exc
        cursor = max(cursor, base + spec.size)

    bus = SharedBus(
        "bus",
        sim,
        address_map,
        arbitration=arbitration,
        max_burst_beats=max_burst_beats,
    )
    for index, spec in enumerate(targets):
        base = address_map.range_for_target(index)[0].base
        bus.add_target(
            spec.name,
            base=base,
            size=spec.size,
            read_latency=spec.read_latency,
            write_latency=spec.write_latency,
            slv_addr=index,
        )

    masters: Dict[str, ProtocolMaster] = {}
    bridges: Dict[str, Bridge] = {}
    for spec in initiators:
        master_cls = MODELS[spec.protocol][0]
        source = spec.traffic
        if isinstance(source, TrafficSpec):
            source = source.build(spec.name)
        master = master_cls(spec.name, sim, source, **spec.protocol_kwargs)
        sim.add(master)
        bridge = Bridge(
            f"{spec.name}.bridge",
            master,
            spec.protocol,
            bus,
            latency=bridge_latency,
        )
        sim.add(bridge)
        masters[spec.name] = master
        bridges[spec.name] = bridge
    # The bus ticks after bridges so same-cycle requests are visible the
    # next cycle (queues enforce this anyway; order is for determinism).
    sim.add(bus)

    return BusSoc(sim, bus, address_map, masters, bridges)
