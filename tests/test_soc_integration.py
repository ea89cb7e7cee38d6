"""Whole-SoC integration: mixed protocols, determinism, data integrity."""

import ast
import inspect
import pathlib
import re

import pytest

import differential
from repro.bus.system import BUS_ROWS, build_bus_soc
from repro.core.transaction import make_read, make_write
from repro.ip import TrafficSpec
from repro.ip.traffic import TRAFFIC_ROWS, UNKNOWN_KIND, UNNAMED_ROWS
from repro.niu.tag_policy import default_policy
from repro.sim.fingerprint import fingerprint_soc
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.soc import InitiatorSpec, LinkSpec, SocBuilder, TargetSpec
from repro.soc.builder import BUILD_ROWS
from repro.soc.config import INITIATOR_ROWS, TARGET_ROWS
from repro.sweep import Checkpoint
from repro.transport import topology as topo
from repro.transport.network import PLANE_ROWS
from repro.transport.switching import SwitchingMode
from repro.workloads import DmaDescriptor, StreamChannel


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
        data, written = map(bytes.fromhex, soc.memories["mem0"].store.image())
        for offset, value in enumerate(data):
            if written[offset]:
                soc2.memories["mem0"].store.write_beat(offset, value, 1)
        soc2.run_to_completion(max_cycles=20_000)
        assert soc2.memories["mem0"].read_beat(0x500, 4) == 0x77


class TestTopologyAndFabricKnobs:
    @pytest.mark.parametrize(
        "topology_factory",
        [
            lambda: topo.mesh(3, 3, endpoints=7),
            lambda: topo.ring(7, endpoints=7),
            lambda: topo.Topology([(0, leaf) for leaf in range(1, 8)],
                                  {ep: ep + 1 for ep in range(7)}, name="star7"),
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
        builder.add_target(TargetSpec("mem", size=0x1000))
        builder.add_initiator(
            InitiatorSpec("a", "AHB", TrafficSpec(kind="scripted", intents=[]))
        )
        with pytest.raises(ValueError):
            builder.build()  # two initiators named 'a': refused by a build row

    def test_traffic_spec_builds_a_fresh_source_every_time(self):
        builder = SocBuilder()
        builder.add_initiator(InitiatorSpec(
            "gpu0", "AXI",
            TrafficSpec(kind="poisson", seed=2, count=40, pairs=[(0, 0x1000)]),
        ))
        builder.add_target(TargetSpec("mem0", size=0x1000))
        prints = []
        for _ in range(2):
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
        soc = self._build(links={"router": LinkSpec(phit_bits=16)})
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
        inits, tgts = self._scripted_specs()
        builder = SocBuilder(links={"diagonal": LinkSpec()})
        builder.initiators.extend(inits)
        builder.targets.extend(tgts)
        with pytest.raises(ValueError, match="link class"):
            builder.build()


class TestFlowStats:
    """Per-flow latency percentiles: per priority and per (src, dst)
    pair, on each plane of six AXI masters on an adaptive 4x4 torus."""

    @staticmethod
    def _torus_soc():
        ranges = [(0, 0x2000), (0x2000, 0x2000)]
        builder = SocBuilder(topology=topo.torus(4, 4, endpoints=16),
                             routing="adaptive", vcs=4)
        for i in range(6):
            builder.add_initiator(InitiatorSpec(
                f"m{i}", "AXI",
                TrafficSpec(kind="poisson", pairs=ranges, count=20, seed=i,
                            tags=4, rate=0.5, burst_beats=(1, 4)),
                protocol_kwargs={"id_count": 4},
            ))
        builder.add_target(TargetSpec("dram", size=0x2000, read_latency=6,
                                      write_latency=3))
        builder.add_target(TargetSpec("sram", size=0x2000, read_latency=2,
                                      write_latency=1))
        soc = builder.build()
        soc.run_to_completion()
        return soc

    def test_percentiles_per_priority_and_pair(self):
        flows = self._torus_soc().flow_stats()
        assert set(flows) == {"request", "response"}
        for plane in flows.values():
            assert plane["priority"], "per-priority histograms missing"
            assert plane["pairs"], "per-pair histograms missing"
            for summary in plane["priority"].values():
                for key in ("p50", "p99", "p999", "count", "max"):
                    assert key in summary
                assert summary["p50"] <= summary["p99"] <= summary["p999"]

    def test_pair_flows_are_src_dst_labelled(self):
        pairs = self._torus_soc().flow_stats()["request"]["pairs"]
        # every request pair ends at a target endpoint (6 = dram, 7 = sram)
        for label in pairs:
            src, dst = label.split("->")
            assert int(dst) in (6, 7) and 0 <= int(src) < 6


@pytest.mark.parametrize("fabric", ["noc", "bus"])
def test_master_latency_of_an_unknown_name_raises_and_registers_nothing(fabric):
    """A read never writes: the latency of a name that is not a master
    used to come back all zeros and leave ``<name>.txn`` registered, in
    the registry and in every later checkpoint."""
    if fabric == "noc":
        soc = differential.build("mixed-protocols")
    else:
        soc = build_bus_soc([InitiatorSpec("cpu", "AXI", _traffic())], [_mem()])
    soc.run(200)
    registered = set(soc.sim.stats._latencies)
    with pytest.raises(KeyError, match="'cpu_typo'") as refused:
        soc.master_latency("cpu_typo")
    assert all(repr(name) in str(refused.value) for name in soc.masters)
    assert set(soc.sim.stats._latencies) == registered
    assert b"cpu_typo" not in Checkpoint.capture(soc).to_bytes()
    first = next(iter(soc.masters))
    assert soc.master_latency(first)["count"] > 0


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


def noc(initiators=None, targets=None, **knobs):
    """A one-AXI-master / one-memory NoC SoC, either side replaced."""
    return build_noc([_cpu()] if initiators is None else initiators,
                     [_mem()] if targets is None else targets, **knobs)


def bus(initiators=None, targets=None, **knobs):
    """The same SoC through the bus builder."""
    return build_bus_soc([_cpu()] if initiators is None else initiators,
                         [_mem()] if targets is None else targets, **knobs)


def _with(**knobs):
    """One initiator whose traffic spec sets ``knobs``."""
    return [InitiatorSpec("cpu", "AXI", TrafficSpec(**knobs))]


def _credit_loop():
    """Two DMA initiators that declare ``credit`` with 2 and 0 tokens."""
    return [
        InitiatorSpec(name, "AXI", TrafficSpec(kind="dma", program=[
            DmaDescriptor("read", wait=StreamChannel("credit", initial))]))
        for name, initial in (("cpu", 2), ("dma", 0))
    ]


def _poisson(**knobs):
    return _with(kind="poisson", seed=5, pairs=[(0, 0x1000)], **knobs)


PIPELINED = LinkSpec(phit_bits=32, pipeline_latency=1)


def _all_rows():
    """Every check row, keyed ``table.name``: the spec records, traffic
    specs (then per kind), the plane, the NoC builder, the bus builder;
    a row two tables share is keyed under the first."""
    tables = {
        "InitiatorSpec": INITIATOR_ROWS,
        "TargetSpec": TARGET_ROWS,
        "TrafficSpec": UNKNOWN_KIND + UNNAMED_ROWS,
        **{f"TrafficSpec.{kind}": rows for kind, rows in TRAFFIC_ROWS.items()},
        "Network": PLANE_ROWS,
        "SocBuilder": BUILD_ROWS,
        "build_bus_soc": BUS_ROWS,
    }
    rows = {}
    for table, table_rows in tables.items():
        for row in table_rows:
            if not any(row is seen for seen in rows.values()):
                rows[f"{table}.{row.name}"] = row
    return rows


ROWS = _all_rows()

#: case -> (row, build, message): ``build`` makes the specs and the SoC,
#: so a spec row fires inside it too; a ``bus_`` case goes through
#: build_bus_soc.  The first ten cases are older than the table.  Without
#: them the topology died as a bare ``KeyError: 2``, a shared name as a
#: duplicate-component error, the bus built duplicate targets and every
#: ignored field silently, and failed duplicate initiators on the internal
#: queue name ``'cpu.sock.ar'``.  Without the rest, the plane knobs died
#: mid-build with a bare ``KeyError`` / ``AttributeError`` or on an
#: internal queue name.
REFUSALS = {
    "noc_topology_too_small": (
        "SocBuilder.endpoints",
        lambda: noc([_cpu(), InitiatorSpec("dma", "AXI", _traffic())],
                    topology=topo.single_router(2)),
        "topology 'xbar' has 2 endpoints but the SoC attaches 3 specs "
        "(2 initiators + 1 targets)",
    ),
    "noc_initiator_and_target_share_a_name": (
        "SocBuilder.names", lambda: noc(targets=[TargetSpec("cpu")]),
        "initiator 'cpu' and target 'cpu' share a name",
    ),
    "bus_initiator_and_target_share_a_name": (
        "SocBuilder.names", lambda: bus(targets=[TargetSpec("cpu")]),
        "initiator 'cpu' and target 'cpu' share a name",
    ),
    "bus_duplicate_targets": (
        "SocBuilder.names", lambda: bus(targets=[_mem(), _mem(base=0x1000)]),
        "target 'mem' and target 'mem' share a name",
    ),
    "bus_duplicate_initiators": (
        "SocBuilder.names", lambda: bus([_cpu(), _cpu()]),
        "initiator 'cpu' and initiator 'cpu' share a name",
    ),
    "bus_initiator_region": (
        "build_bus_soc.initiator_region", lambda: bus([_cpu(region="slow")]),
        "initiator 'cpu': the bus builder has no model for region='slow'",
    ),
    "bus_initiator_policy": (
        "build_bus_soc.initiator_policy",
        lambda: bus([_cpu(policy=default_policy("AXI"))]),
        "initiator 'cpu': the bus builder has no model for policy=",
    ),
    "bus_target_region": (
        "build_bus_soc.target_region", lambda: bus(targets=[_mem(region="io")]),
        "target 'mem': the bus builder has no model for region='io'",
    ),
    # the bus builder's own knob: a negative latency ran as 0
    "bus_bridge_latency": (
        "build_bus_soc.bridge_latency", lambda: bus(bridge_latency=-3),
        "bus: bridge_latency must be >= 0, got -3",
    ),
    # the spec records, at construction
    "noc_initiator_protocol": (
        "InitiatorSpec.protocol",
        lambda: noc([InitiatorSpec("cpu", "PCIe", _traffic())]),
        "initiator 'cpu': unknown protocol 'PCIE'; known: ('AHB', 'AXI', ",
    ),
    **{
        f"noc_target_{knob}": (
            f"TargetSpec.{knob}",
            lambda knob=knob, value=value: noc(targets=[TargetSpec("mem", **{knob: value})]),
            f"target 'mem': {knob} must be {requirement}, got {value!r}",
        )
        for knob, value, requirement in (
            ("size", 0, "> 0"),
            ("read_latency", -3, ">= 0"),
            ("write_latency", -1, ">= 0"),
            ("per_beat_cycles", -2, ">= 0"),
            ("max_outstanding", 0, ">= 1"),
            ("error_ranges", [(0x200, -4)], "(offset >= 0, size >= 1) pairs"),
        )
    },
    # traffic specs, as the builder hands sources out
    "noc_traffic_kind": (
        "TrafficSpec.kind", lambda: noc(_with(kind="fractal")),
        "traffic spec '<fractal>': unknown kind 'fractal'; known kinds: (",
    ),
    "traffic_spec_without_a_master": (
        "TrafficSpec.master", lambda: TrafficSpec(kind="stream").build(),
        "TrafficSpec(kind='stream') needs a master name",
    ),
    "noc_traffic_scripted_intents": (
        "TrafficSpec.scripted.intents", lambda: noc(_with(kind="scripted")),
        "traffic spec '<scripted>': intents must be a list of Transactions, "
        "got None",
    ),
    "noc_traffic_pairs": (
        "TrafficSpec.poisson.pairs", lambda: noc(_with(kind="poisson", seed=5)),
        "traffic spec '<poisson>': pairs must be at least one (base, size) "
        "range, got None",
    ),
    "noc_traffic_read_fraction": (
        "TrafficSpec.poisson.read_fraction",
        lambda: noc(_poisson(read_fraction=1.5)),
        "read_fraction must be in [0, 1], got 1.5",
    ),
    "noc_traffic_beat_bytes": (
        "TrafficSpec.poisson.beat_bytes", lambda: noc(_poisson(beat_bytes=3)),
        "beat_bytes must be one of (",
    ),
    "noc_traffic_rate": (
        "TrafficSpec.poisson.rate", lambda: noc(_poisson(rate=0)),
        "rate must be in (0, 1], got 0",
    ),
    "noc_traffic_threads": (
        "TrafficSpec.poisson.threads", lambda: noc(_poisson(threads=0)),
        "threads must be >= 1, got 0",
    ),
    "noc_traffic_tags": (
        "TrafficSpec.poisson.tags", lambda: noc(_poisson(tags=0)),
        "tags must be >= 1, got 0",
    ),
    "noc_traffic_burst_beats": (
        "TrafficSpec.poisson.burst_beats", lambda: noc(_poisson(burst_beats=(0,))),
        "burst_beats must be an int >= 1 or a non-empty tuple of them, got (0,)",
    ),
    "noc_traffic_seed": (
        "TrafficSpec.poisson.seed",
        lambda: noc(_with(kind="dependent", pairs=[(0, 0x1000)])),
        "traffic spec '<dependent>': seed must be an explicit int for "
        "reproducibility, got None",
    ),
    "noc_traffic_stream_bytes_total": (
        "TrafficSpec.stream.bytes_total",
        lambda: noc(_with(kind="stream", bytes_total=0)),
        "bytes_total must be > 0, got 0",
    ),
    "noc_traffic_stream_burst_beats": (
        "TrafficSpec.stream.burst_beats",
        lambda: noc(_with(kind="stream", burst_beats=0)),
        "burst_beats must be an int >= 1, got 0",
    ),
    "noc_traffic_sync_style": (
        "TrafficSpec.sync.style", lambda: noc(_with(kind="sync", style="spin")),
        "style must be 'lock' or 'excl', got 'spin'",
    ),
    "noc_traffic_dma_program": (
        "TrafficSpec.dma.program", lambda: noc(_with(kind="dma")),
        "program must be a non-empty list, got None",
    ),
    # the plane options: each died mid-build without its row
    "noc_mode": (
        "Network.mode", lambda: noc(mode="wormhole"),
        "soc.req: mode must be a SwitchingMode, one of ['WORMHOLE', "
        "'STORE_AND_FORWARD', 'VIRTUAL_CUT_THROUGH'], got 'wormhole'",
    ),
    "noc_routing": (
        "Network.routing", lambda: noc(routing="nope"),
        "soc.req: routing must be one of ('table', 'xy', 'dor', 'adaptive'), "
        "got 'nope'",
    ),
    "noc_arbiter": (
        "Network.arbiter", lambda: noc(arbiter="nope"),
        "soc.req: arbiter must be one of ['age', 'priority', 'round-robin'], "
        "got 'nope'",
    ),
    "noc_buffer_capacity": (
        "Network.buffer_capacity", lambda: noc(buffer_capacity=0),
        "soc.req: buffer_capacity must be >= 1, got 0",
    ),
    "noc_vcs": ("Network.vcs", lambda: noc(vcs=0), "soc.req: vcs must be >= 1, got 0"),
    "noc_vc_policy": (
        "Network.vc_policy", lambda: noc(vcs=2, vc_policy="nope"),
        "soc.req: vc_policy must be a VcPolicy or one of ['dateline', 'escape', "
        "'keep'], got 'nope'",
    ),
    "noc_adaptive_vc_policy": (
        "Network.adaptive_vc_policy",
        lambda: noc(routing="adaptive", vcs=3, vc_policy="dateline"),
        "soc.req: adaptive routing needs the escape VC policy",
    ),
    "noc_policy_vcs": (
        "Network.policy_vcs", lambda: noc(vc_policy="dateline"),
        "soc.req: VC policy 'dateline' needs at least 2 VCs, got vcs=1",
    ),
    "noc_link_staging": (
        "Network.link_staging",
        lambda: noc(mode=SwitchingMode.STORE_AND_FORWARD, buffer_capacity=16,
                    links={"router": LinkSpec(phit_bits=48, capacity=2)}),
        "soc.req: router links stage only 2 flits but",
    ),
    # the NoC builder's own rows
    "noc_no_initiator": (
        "SocBuilder.initiators", lambda: noc([]),
        "soc: SoC needs at least one initiator",
    ),
    "bus_no_initiator": (
        "SocBuilder.initiators", lambda: bus([]),
        "bus: SoC needs at least one initiator",
    ),
    "noc_no_target": (
        "SocBuilder.targets", lambda: noc(targets=[]),
        "soc: SoC needs at least one target",
    ),
    "bus_no_target": (
        "SocBuilder.targets", lambda: bus(targets=[]),
        "bus: SoC needs at least one target",
    ),
    "noc_fabric_region": (
        "SocBuilder.regions", lambda: noc(fabric_region="nope"),
        "soc: fabric: unknown clock region 'nope'; declared domains: (none)",
    ),
    "noc_region": (
        "SocBuilder.regions",
        lambda: noc([_cpu(region="slow")], clock_domains={"fast": 2}),
        "soc: initiator 'cpu': unknown clock region 'slow'; declared domains: "
        "['fast']",
    ),
    # a bare LinkSpec was a second way in, read as the router links
    "noc_links": (
        "SocBuilder.links", lambda: noc(links=PIPELINED),
        "soc: links must be a mapping with keys from ('router', 'endpoint'), "
        "got LinkSpec(",
    ),
    "noc_link_class": (
        "SocBuilder.link_classes", lambda: noc(links={"diagonal": PIPELINED}),
        "soc: links: unknown link class 'diagonal'; known: ('router', 'endpoint')",
    ),
    "noc_link_spec": (
        "SocBuilder.link_specs", lambda: noc(links={"router": 4}),
        "soc: links['router']: expected a LinkSpec",
    ),
    "noc_no_traffic_source": (
        "SocBuilder.traffic", lambda: noc([InitiatorSpec("cpu", "AXI")]),
        "soc: initiator 'cpu' has no traffic spec — give "
        "InitiatorSpec(traffic=TrafficSpec(...))",
    ),
    "bus_no_traffic_source": (
        "SocBuilder.traffic", lambda: bus([InitiatorSpec("cpu", "AXI")]),
        "bus: initiator 'cpu' has no traffic spec",
    ),
    # a built source is stateful: one build only, so it has no way in
    "noc_built_source": (
        "SocBuilder.traffic",
        lambda: noc([InitiatorSpec("cpu", "AXI", _traffic().build("cpu"))]),
        "soc: initiator 'cpu' has no traffic spec — give "
        "InitiatorSpec(traffic=TrafficSpec(...))",
    ),
    # a channel name is one token log per SoC, so one initial count
    "noc_channel_declared_twice": (
        "SocBuilder.channels", lambda: noc(_credit_loop()),
        "soc: initiator 'dma': channel 'credit' is declared with initial=0 but "
        "was declared with initial=2",
    ),
    "bus_channel_declared_twice": (
        "SocBuilder.channels", lambda: bus(_credit_loop()),
        "bus: initiator 'dma': channel 'credit' is declared with initial=0",
    ),
    # sharding's block
    "noc_shards_strict": (
        "SocBuilder.shards_strict",
        lambda: noc(shards=2, links={"router": PIPELINED}, strict_kernel=True),
        "soc: the strict reference kernel cannot drive sharded builds",
    ),
    "noc_shards_trace": (
        "SocBuilder.shards_trace",
        lambda: noc(shards=2, links={"router": PIPELINED}, trace=Tracer(enabled=True)),
        "soc: tracing is out of scope for sharded builds",
    ),
    "noc_shards_transparent_links": (
        "SocBuilder.shards_links", lambda: noc(shards=2),
        "soc: the shard plan cuts inter-router links but the router link spec "
        "is transparent",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_spec_error_names_what_to_fix(case, monkeypatch):
    """One case per check row: its error and message, raised before the
    first component registers."""
    row, build, message = REFUSALS[case]
    added = []
    monkeypatch.setattr(Simulator, "add", lambda sim, component: added.append(component))
    with pytest.raises(ROWS[row].error, match=re.escape(message)):
        build()
    assert added == []


def test_every_check_row_has_a_case():
    """A row with no case or a case with no row fails, and so does a row
    of the bus builder's table without a ``bus_`` case."""
    assert {row for row, _, _ in REFUSALS.values()} == set(ROWS)
    bus_cases = {row for case, (row, _, _) in REFUSALS.items() if case.startswith("bus_")}
    assert {key for key, row in ROWS.items() if row in BUS_ROWS} == bus_cases


# --------------------------------------------------------------------- #
# the option census
# --------------------------------------------------------------------- #
#: Builder options no bench, e2e workload or scenario sets, and why each
#: stays anyway.
EXEMPT = {
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


#: Functions, methods and classes in ``src/`` that no code in ``src/``,
#: ``benchmarks/`` or ``examples/`` names, and why each stays anyway.
UNNAMED_EXEMPT = {
    "src/repro/core/services.py::live_reservations": "the exclusive-access test checks every reservation is released",
    "src/repro/protocols/proprietary.py::make_fence": "the proprietary socket's FENCE intent; no workload sends one, the bus and master tests drive it",
    "src/repro/sim/kernel.py::active_count": "test fixture: the scheduler tests read how many components tick next",
    "src/repro/transport/router.py::locked_outputs": "the lock tests read a router's held outputs through it",
    "src/repro/transport/topology.py::hop_distance": "the routing tests check every table's hop count against it",
    "src/repro/transport/topology.py::diameter": "the routing tests check the BFS distances against it",
    "src/repro/transport/topology.py::single_router": "test fixture: the one-router crossbar the lock and routing tests build",
}


def _named(tree):
    """Every name a module's code uses: a ``Name``, an ``Attribute``, a
    keyword argument, or the string argument of ``getattr`` /
    ``hasattr``.  Docstrings, comments and f-string text name nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            yield node.args[1].value


def test_every_function_in_src_is_named_or_excused():
    """A definition nothing uses is a path nobody drives: every function,
    method or class defined in ``src/`` is named by code somewhere in
    ``src/``, ``benchmarks/`` or ``examples/`` (:func:`_named`), or its
    reason to stay is written in ``UNNAMED_EXEMPT`` — and leaves it once
    something names it.  Files are parsed; nothing is imported.  An
    import or an ``__all__`` entry is not a use.

    The match is by name, so this is a floor, not a proof: a method
    whose name another definition shares and uses escapes it (the
    deleted ``Router.utilization`` did, because ``SharedBus.utilization``
    is named by an example).  Dunder methods are left out: the
    interpreter names them."""
    repo = pathlib.Path(__file__).resolve().parents[1]
    named, defined = set(), []
    for root in ("src", "benchmarks", "examples"):
        for path in sorted((repo / root).rglob("*.py")):
            tree = ast.parse(path.read_text())
            named.update(_named(tree))
            if root == "src":
                defined += [
                    (path.relative_to(repo).as_posix(), node.name)
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))
                ]
    unnamed = {
        f"{path}::{name}"
        for path, name in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in named
    }
    assert unnamed == set(UNNAMED_EXEMPT)
