"""Whole-SoC integration: mixed protocols, determinism, data integrity."""

import inspect
import pathlib
import re

import pytest

from repro.bus.system import build_bus_soc
from repro.core.transaction import make_read, make_write
from repro.ip import TrafficSpec
from repro.niu.tag_policy import default_policy
from repro.sim.fingerprint import fingerprint_soc, reset_ids
from repro.soc import InitiatorSpec, LinkSpec, SocBuilder, TargetSpec
from repro.transport import topology as topo


def mixed_specs(count=25):
    ranges = [(0, 0x1000), (0x1000, 0x1000)]
    inits = [
        InitiatorSpec("cpu0", "AHB",
                      TrafficSpec(kind="dependent", pairs=ranges, count=count,
                                  seed=1)),
        InitiatorSpec("gpu0", "AXI",
                      TrafficSpec(kind="poisson", pairs=ranges, count=count,
                                  seed=2, rate=0.25, tags=4),
                      protocol_kwargs={"id_count": 4}),
        InitiatorSpec("dsp0", "OCP",
                      TrafficSpec(kind="poisson", pairs=ranges, count=count,
                                  seed=3, rate=0.25, threads=2),
                      protocol_kwargs={"threads": 2}),
        InitiatorSpec("io0", "BVCI",
                      TrafficSpec(kind="poisson", pairs=ranges, count=count,
                                  seed=4, rate=0.25)),
        InitiatorSpec("acc0", "PROPRIETARY",
                      TrafficSpec(kind="stream", base=0x800, bytes_total=256)),
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
            "w", "AXI",
            TrafficSpec(kind="scripted", intents=[make_write(0x500, [0x77, 0x88])]),
        )
        builder = SocBuilder()
        builder.add_initiator(writer)
        builder.add_target(TargetSpec("mem0", size=0x1000))
        soc = builder.build()
        soc.run_to_completion(max_cycles=20_000)

        reader_spec = InitiatorSpec(
            "r", "OCP",
            TrafficSpec(kind="scripted", intents=[make_read(0x500, beats=2)]),
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
            InitiatorSpec("a", "AHB", TrafficSpec(kind="scripted", intents=[]))
        )
        with pytest.raises(ValueError):
            builder.build()  # no targets
        with pytest.raises(ValueError):
            builder.add_initiator(
                InitiatorSpec("a", "AHB", TrafficSpec(kind="scripted", intents=[]))
            )

    def test_second_build_with_a_used_source_is_refused(self):
        """A source object is stateful: a second SoC built around the
        first one's exhausted source would silently do nothing."""
        builder = SocBuilder()
        builder.add_initiator(InitiatorSpec(
            "gpu0", "AXI",
            TrafficSpec(kind="poisson", pairs=[(0, 0x1000)], count=40, seed=2,
                        rate=0.25).build("gpu0"),
        ))
        builder.add_target(TargetSpec("mem0", size=0x1000))
        soc = builder.build()
        soc.run_to_completion(max_cycles=100_000)
        assert soc.total_completed() == 40
        with pytest.raises(ValueError, match="'gpu0'.*fresh source per build"):
            builder.build()

    def test_a_failed_build_leaves_ready_sources_free(self):
        """A build that raises after taking a ready source must not mark
        it attached: no SoC holds it, so the retry has to succeed."""
        source = TrafficSpec(
            kind="poisson", seed=5, count=20, pairs=[(0, 0x1000)]
        ).build("cpu")
        broken = InitiatorSpec(
            "dma", "AXI", TrafficSpec(kind="poisson", seed=6, count=20,
                                      pairs=[(0, 0x1000)]),
            protocol_kwargs={"no_such_option": 1},
        )
        builder = SocBuilder()
        builder.add_initiator(InitiatorSpec("cpu", "AXI", source))
        builder.add_initiator(broken)
        builder.add_target(TargetSpec("mem0", size=0x1000))
        with pytest.raises(TypeError, match="no_such_option"):
            builder.build()
        broken.protocol_kwargs = {}
        soc = builder.build()
        assert soc.masters["cpu"].traffic is source
        soc.run_to_completion(max_cycles=100_000)
        assert soc.masters["cpu"].completed == 20
        with pytest.raises(ValueError, match="'cpu'.*attached to master 'cpu'"):
            builder.build()

    def test_one_source_on_two_initiators_is_refused(self):
        source = TrafficSpec(
            kind="poisson", seed=5, count=20, pairs=[(0, 0x1000)]
        ).build("a")
        builder = SocBuilder()
        builder.add_initiator(InitiatorSpec("a", "AXI", source))
        builder.add_initiator(InitiatorSpec("b", "AXI", source))
        builder.add_target(TargetSpec("mem0", size=0x1000))
        with pytest.raises(ValueError, match="'b'.*attached to master 'a'"):
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
                          TrafficSpec(kind="scripted", intents=[make_read(0x8000_0000)]))
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
            InitiatorSpec("m", "AHB", TrafficSpec(kind="scripted", intents=[]))
        )
        builder.add_target(TargetSpec("lo", size=0x1000))
        builder.add_target(TargetSpec("alias", size=0x1000, base=0x800))
        with pytest.raises(ValueError, match="alias"):
            builder.build()

    def test_aliased_target_base_rejected_by_bus_builder(self):
        inits = [InitiatorSpec("m", "AHB", TrafficSpec(kind="scripted", intents=[]))]
        tgts = [
            TargetSpec("lo", size=0x1000),
            TargetSpec("alias", size=0x100, base=0x0),
        ]
        with pytest.raises(ValueError, match="alias"):
            build_bus_soc(inits, tgts)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("max_outstanding", 0),  # the target NIU never serves: a wedge
            ("max_outstanding", -2),
            ("read_latency", -3),  # the memory clamped these to 1
            ("write_latency", -1),
            ("per_beat_cycles", -2),
            ("error_ranges", [(0x200, -4)]),
            ("error_ranges", [(-1, 0x10)]),
        ],
    )
    def test_target_knob_rejected_at_spec(self, knob, value):
        """A knob that wedges the target or that the memory would silently
        ignore fails when the spec is made, naming the target and knob."""
        with pytest.raises(ValueError, match=rf"target 'mem0': {knob} must be"):
            TargetSpec("mem0", size=0x1000, **{knob: value})


class TestPhysicalLayerKnobs:
    def _scripted_specs(self):
        script = [
            make_write(0x100, [0x11, 0x22, 0x33, 0x44]),
            make_write(0x1200, [0xAA]),
            make_read(0x100, beats=4),
            make_read(0x1200),
        ]
        inits = [
            InitiatorSpec("cpu", "AXI", TrafficSpec(kind="scripted", intents=script),
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
# spec errors and source hand-out, shared by both builders
# --------------------------------------------------------------------- #
def _traffic():
    return TrafficSpec(kind="poisson", seed=5, count=20, pairs=[(0, 0x1000)])


def build_noc(initiators, targets, **knobs):
    builder = SocBuilder(**knobs)
    builder.initiators.extend(initiators)
    builder.targets.extend(targets)
    return builder.build()


def _cpu(**fields):
    return InitiatorSpec("cpu", "AXI", _traffic(), **fields)


def _mem(**fields):
    return TargetSpec("mem", size=0x1000, **fields)


#: (builder, initiators, targets, message) per rule.  Without these
#: checks the first died as a bare ``KeyError: 2``, the second as a
#: duplicate-component error, the bus built duplicate targets and every
#: ignored field silently, and failed duplicate initiators on the
#: internal queue name ``'cpu.sock.ar'``.
SPEC_ERRORS = {
    "noc_topology_too_small": (
        lambda i, t: build_noc(i, t, topology=topo.single_router(2)),
        [_cpu(), InitiatorSpec("dma", "AXI", _traffic())],
        [_mem()],
        "topology 'xbar' has 2 endpoints but the SoC attaches 3 specs "
        "(2 initiators + 1 targets)",
    ),
    "noc_initiator_and_target_share_a_name": (
        build_noc, [_cpu()], [TargetSpec("cpu")],
        "initiator 'cpu' and target 'cpu' share a name",
    ),
    "bus_initiator_and_target_share_a_name": (
        build_bus_soc, [_cpu()], [TargetSpec("cpu")],
        "initiator 'cpu' and target 'cpu' share a name",
    ),
    "bus_duplicate_targets": (
        build_bus_soc, [_cpu()], [_mem(), _mem(base=0x1000)],
        "target 'mem' and target 'mem' share a name",
    ),
    "bus_duplicate_initiators": (
        build_bus_soc, [_cpu(), _cpu()], [_mem()],
        "initiator 'cpu' and initiator 'cpu' share a name",
    ),
    "bus_initiator_region": (
        build_bus_soc, [_cpu(region="slow")], [_mem()],
        "initiator 'cpu': the bus builder has no model for region='slow'",
    ),
    "bus_initiator_policy": (
        build_bus_soc, [_cpu(policy=default_policy("AXI"))], [_mem()],
        "initiator 'cpu': the bus builder has no model for policy=",
    ),
    "bus_target_region": (
        build_bus_soc, [_cpu()], [_mem(region="io")],
        "target 'mem': the bus builder has no model for region='io'",
    ),
    "bus_target_per_beat_cycles": (
        build_bus_soc, [_cpu()], [_mem(per_beat_cycles=2)],
        "target 'mem': the bus builder has no model for per_beat_cycles=2",
    ),
    "bus_target_error_ranges": (
        build_bus_soc, [_cpu()], [_mem(error_ranges=[(0, 0x10)])],
        "target 'mem': the bus builder has no model for error_ranges=[(0, 16)]",
    ),
}


@pytest.mark.parametrize("case", sorted(SPEC_ERRORS))
def test_a_spec_error_names_what_to_fix(case):
    build, initiators, targets, message = SPEC_ERRORS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        build(initiators, targets)


def test_the_bus_builder_hands_out_a_ready_source_once():
    """A ready source is stateful.  The bus builder used to take it
    unchecked: a second BusSoc around an exhausted source completed 0 of
    its 20 transactions without an error, and SocBuilder accepted the
    source afterwards.  Both builders now share one hand-out."""
    source = _traffic().build("cpu")
    spec = InitiatorSpec("cpu", "AXI", source)
    targets = [_mem()]
    with pytest.raises(ValueError, match="'dma'.*attached to master 'cpu'"):
        build_bus_soc([spec, InitiatorSpec("dma", "AXI", source)], targets)
    broken = InitiatorSpec("dma", "AXI", _traffic(),
                           protocol_kwargs={"no_such_option": 1})
    with pytest.raises(TypeError, match="no_such_option"):
        build_bus_soc([spec, broken], targets)
    soc = build_bus_soc([spec], targets)  # the failed builds marked nothing
    soc.run_to_completion()
    assert soc.total_completed() == 20
    with pytest.raises(ValueError, match="'cpu'.*attached to master 'cpu'"):
        build_bus_soc([spec], targets)
    with pytest.raises(ValueError, match="'cpu'.*attached to master 'cpu'"):
        build_noc([spec], targets)


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
    is set by some paper bench, e2e workload or built-in scenario (files
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
