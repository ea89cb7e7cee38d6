"""Whole-SoC integration: mixed protocols, determinism, data integrity."""

import inspect
import pathlib
import re

import pytest

from repro.bus.system import build_bus_soc
from repro.core.transaction import make_read, make_write
from repro.ip.masters import cpu_workload, dma_workload, random_workload
from repro.ip.traffic import ScriptedTraffic, TrafficSpec
from repro.sim.fingerprint import fingerprint_soc, reset_ids
from repro.soc import InitiatorSpec, LinkSpec, SocBuilder, TargetSpec
from repro.transport import topology as topo


def mixed_specs(count=25):
    ranges = [(0, 0x1000), (0x1000, 0x1000)]
    inits = [
        InitiatorSpec("cpu0", "AHB", cpu_workload("cpu0", ranges, count=count, seed=1)),
        InitiatorSpec("gpu0", "AXI",
                      random_workload("gpu0", ranges, count=count, seed=2, tags=4),
                      protocol_kwargs={"id_count": 4}),
        InitiatorSpec("dsp0", "OCP",
                      random_workload("dsp0", ranges, count=count, seed=3, threads=2),
                      protocol_kwargs={"threads": 2}),
        InitiatorSpec("io0", "BVCI",
                      random_workload("io0", ranges, count=count, seed=4)),
        InitiatorSpec("acc0", "PROPRIETARY",
                      dma_workload("acc0", base=0x800, bytes_total=256)),
    ]
    tgts = [TargetSpec("mem0", size=0x1000), TargetSpec("mem1", size=0x1000)]
    return inits, tgts


def build_soc(**kwargs):
    inits, tgts = mixed_specs()
    builder = SocBuilder(**kwargs)
    for spec in inits:
        builder.add_initiator(spec)
    for spec in tgts:
        builder.add_target(spec)
    return builder.build()


class TestMixedProtocolSoc:
    def test_five_socket_families_share_one_fabric(self):
        soc = build_soc()
        soc.run_to_completion(max_cycles=100_000)
        assert soc.total_completed() > 0
        assert soc.ordering_violations() == 0
        protocols = {m.protocol_name for m in soc.masters.values()}
        assert protocols == {"AHB", "AXI", "OCP", "BVCI", "PROPRIETARY"}

    def test_layer_config_derived_from_sockets(self):
        soc = build_soc()
        fmt = soc.layer_config.packet_format
        assert fmt.has_user_bit("excl")  # AXI + OCP present
        assert soc.fabric.packet_format is fmt

    def test_deterministic_across_runs(self):
        a = build_soc()
        ca = a.run_to_completion(max_cycles=100_000)
        b = build_soc()
        cb = b.run_to_completion(max_cycles=100_000)
        assert ca == cb
        assert a.memory_image() == b.memory_image()
        for name in a.masters:
            assert a.master_latency(name) == b.master_latency(name)

    def test_shared_memory_coherent_view(self):
        """A value written by one master is read back by another."""
        writer = InitiatorSpec(
            "w", "AXI", ScriptedTraffic([make_write(0x500, [0x77, 0x88])])
        )
        builder = SocBuilder()
        builder.add_initiator(writer)
        builder.add_target(TargetSpec("mem0", size=0x1000))
        soc = builder.build()
        soc.run_to_completion(max_cycles=20_000)

        reader_spec = InitiatorSpec(
            "r", "OCP", ScriptedTraffic([make_read(0x500, beats=2)]),
            protocol_kwargs={"threads": 1},
        )
        builder2 = SocBuilder()
        builder2.add_initiator(reader_spec)
        builder2.add_target(TargetSpec("mem0", size=0x1000))
        soc2 = builder2.build()
        # Pre-load the second SoC's memory from the first one's image.
        for offset, value in soc.memories["mem0"].store.image().items():
            soc2.memories["mem0"].store.write_beat(offset, value, 1)
        soc2.run_to_completion(max_cycles=20_000)
        assert soc2.memories["mem0"].read_beat(0x500, 4) == 0x77


class TestTopologyAndFabricKnobs:
    @pytest.mark.parametrize(
        "topology_factory",
        [
            lambda: topo.mesh(3, 3, endpoints=7),
            lambda: topo.ring(7, endpoints=7),
            lambda: topo.star(7, endpoints=7),
            lambda: topo.single_router(7),
        ],
        ids=["mesh", "ring", "star", "xbar"],
    )
    def test_any_topology_carries_the_soc(self, topology_factory):
        inits, tgts = mixed_specs(count=10)
        builder = SocBuilder(topology=topology_factory())
        for spec in inits:
            builder.add_initiator(spec)
        for spec in tgts:
            builder.add_target(spec)
        soc = builder.build()
        soc.run_to_completion(max_cycles=200_000)
        assert soc.ordering_violations() == 0

    def test_arbiter_knob(self):
        soc = build_soc(arbiter="age")
        soc.run_to_completion(max_cycles=100_000)
        assert soc.ordering_violations() == 0

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            SocBuilder().build()
        builder = SocBuilder()
        builder.add_initiator(
            InitiatorSpec("a", "AHB", ScriptedTraffic([]))
        )
        with pytest.raises(ValueError):
            builder.build()  # no targets
        with pytest.raises(ValueError):
            builder.add_initiator(
                InitiatorSpec("a", "AHB", ScriptedTraffic([]))
            )

    def test_second_build_with_a_used_source_is_refused(self):
        """A source object is stateful: a second SoC built around the
        first one's exhausted source would silently do nothing."""
        builder = SocBuilder()
        builder.add_initiator(InitiatorSpec(
            "gpu0", "AXI",
            random_workload("gpu0", [(0, 0x1000)], count=40, seed=2),
        ))
        builder.add_target(TargetSpec("mem0", size=0x1000))
        soc = builder.build()
        soc.run_to_completion(max_cycles=100_000)
        assert soc.total_completed() == 40
        with pytest.raises(ValueError, match="'gpu0'.*fresh source per build"):
            builder.build()

    def test_traffic_spec_builds_a_fresh_source_every_time(self):
        builder = SocBuilder()
        builder.add_initiator(InitiatorSpec(
            "gpu0", "AXI",
            TrafficSpec(kind="poisson", seed=2, count=40, pairs=[(0, 0x1000)]),
        ))
        builder.add_target(TargetSpec("mem0", size=0x1000))
        prints = []
        for _ in range(2):
            reset_ids()
            soc = builder.build()
            soc.run_to_completion(max_cycles=100_000)
            assert soc.total_completed() == 40
            prints.append(fingerprint_soc(soc))
        assert prints[0] == prints[1]

    def test_explicit_target_bases(self):
        builder = SocBuilder()
        builder.add_initiator(
            InitiatorSpec("m", "AHB",
                          ScriptedTraffic([make_read(0x8000_0000)]))
        )
        builder.add_target(TargetSpec("lo", size=0x1000))
        builder.add_target(TargetSpec("hi", size=0x1000, base=0x8000_0000))
        soc = builder.build()
        soc.run_to_completion(max_cycles=20_000)
        assert soc.masters["m"].completed == 1
        assert soc.masters["m"].errors == 0

    def test_aliased_target_base_rejected(self):
        """An explicit TargetSpec.base that overlaps an already-assigned
        range is a spec bug: the builder raises, naming the offender."""
        builder = SocBuilder()
        builder.add_initiator(
            InitiatorSpec("m", "AHB", ScriptedTraffic([]))
        )
        builder.add_target(TargetSpec("lo", size=0x1000))
        builder.add_target(TargetSpec("alias", size=0x1000, base=0x800))
        with pytest.raises(ValueError, match="alias"):
            builder.build()

    def test_aliased_target_base_rejected_by_bus_builder(self):
        inits = [InitiatorSpec("m", "AHB", ScriptedTraffic([]))]
        tgts = [
            TargetSpec("lo", size=0x1000),
            TargetSpec("alias", size=0x100, base=0x0),
        ]
        with pytest.raises(ValueError, match="alias"):
            build_bus_soc(inits, tgts)


class TestPhysicalLayerKnobs:
    def _scripted_specs(self):
        script = [
            make_write(0x100, [0x11, 0x22, 0x33, 0x44]),
            make_write(0x1200, [0xAA]),
            make_read(0x100, beats=4),
            make_read(0x1200),
        ]
        inits = [
            InitiatorSpec("cpu", "AXI", ScriptedTraffic(list(script)),
                          protocol_kwargs={"id_count": 2}),
        ]
        tgts = [TargetSpec("mem0", size=0x1000), TargetSpec("mem1", size=0x1000)]
        return inits, tgts

    def _build(self, **kwargs):
        inits, tgts = self._scripted_specs()
        builder = SocBuilder(**kwargs)
        for spec in inits:
            builder.add_initiator(spec)
        for spec in tgts:
            builder.add_target(spec)
        return builder.build()

    def test_physical_layer_invisible_to_transactions(self):
        """The paper's claim: narrow links, wire pipelining, GALS domains
        and CDCs change timing only — the transaction outcome (completions,
        errors, memory image) is identical to the ideal physical layer."""
        ideal = self._build()
        ideal.run_to_completion(max_cycles=50_000)

        inits, tgts = self._scripted_specs()
        builder = SocBuilder(
            links={
                "router": LinkSpec(phit_bits=24, pipeline_latency=2),
                "endpoint": LinkSpec(phit_bits=48),
            },
            clock_domains={"slow": 3, "fab": 1},
            fabric_region="fab",
        )
        for spec in inits:
            spec.region = "slow"
            builder.add_initiator(spec)
        for spec in tgts:
            builder.add_target(spec)
        phys = builder.build()
        phys.run_to_completion(max_cycles=400_000)

        assert phys.total_completed() == ideal.total_completed()
        assert phys.memory_image() == ideal.memory_image()
        assert phys.ordering_violations() == 0
        for master in phys.masters.values():
            assert master.errors == 0
        # ...and the physical path was genuinely exercised.
        assert phys.fabric.total_phits_carried() > 0
        assert phys.sim.cycle > ideal.sim.cycle  # slower, not different

    def test_default_build_has_no_physical_components(self):
        """Zero-cost default: no LinkSpec/region knobs → no PhysicalLink
        components, identical wiring to the pre-physical-layer fabric."""
        soc = self._build()
        assert soc.fabric.physical_links == []
        assert not any(".phy" in name for name in soc.sim._component_names)

    def test_narrow_links_only_no_domains(self):
        soc = self._build(links=LinkSpec(phit_bits=16))
        soc.run_to_completion(max_cycles=200_000)
        assert soc.total_completed() == 4
        assert soc.fabric.total_phits_carried() > 0

    def test_unknown_region_rejected(self):
        inits, tgts = self._scripted_specs()
        builder = SocBuilder(clock_domains={"a": 2})
        for spec in inits:
            spec.region = "missing"
            builder.add_initiator(spec)
        for spec in tgts:
            builder.add_target(spec)
        with pytest.raises(ValueError, match="missing"):
            builder.build()

    def test_unknown_fabric_region_rejected(self):
        inits, tgts = self._scripted_specs()
        builder = SocBuilder(fabric_region="nope")
        for spec in inits:
            builder.add_initiator(spec)
        for spec in tgts:
            builder.add_target(spec)
        with pytest.raises(ValueError, match="nope"):
            builder.build()

    def test_unknown_link_class_rejected(self):
        with pytest.raises(ValueError, match="link class"):
            SocBuilder(links={"diagonal": LinkSpec()})._resolve_links()


# --------------------------------------------------------------------- #
# the option census
# --------------------------------------------------------------------- #
#: Builder options no bench, e2e workload or scenario sets, and why each
#: stays anyway.
EXEMPT = {
    "faults": (
        "no non-test caller yet: it is a feature, not a duplicate path; 17 "
        "tests incl. strict == activity and fork; ROADMAP 1(c) gives it a "
        "workload"
    ),
    "trace": "the tests' observation channel; ROADMAP 3(g)",
}


def test_every_builder_option_has_a_workload_or_an_excuse():
    """An option nobody sets is an unknown: every ``SocBuilder`` keyword
    is set by some paper bench, e2e workload or registry scenario (files
    read as text, nothing imported), or its reason to stay is written in
    ``EXEMPT`` — and leaves it once a workload takes the option."""
    repo = pathlib.Path(__file__).resolve().parents[1]
    callers = [
        path.read_text()
        for root in ("benchmarks", "src/repro/workloads/scenarios")
        for path in sorted((repo / root).rglob("*.py"))
    ]
    options = list(inspect.signature(SocBuilder.__init__).parameters)[1:]
    unset = {
        name
        for name in options
        if not any(re.search(rf"\b{name}=", text) for text in callers)
    }
    assert unset == set(EXEMPT)
