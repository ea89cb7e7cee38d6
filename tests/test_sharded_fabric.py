"""Sharded fabric: conservative parallel simulation across processes.

The bar (ROADMAP PR 10): a build constructed with ``SocBuilder(shards=N)``
produces a byte-identical fingerprint whether it runs in one process or
as N shard workers exchanging boundary envelopes at safe-window barriers.
These tests pin that bar on the same GALS / VC / adaptive workloads the
kernel-determinism suite uses (tracing disabled — rejected for sharded
builds), plus the boundary adversary (wormholes mid-flight across a cut
at every barrier) and every ``ShardConfigError`` rejection path.
"""

import json

import pytest

from repro.ip import TrafficSpec
from repro.sim.shard import ShardConfigError, ShardPlan, plan_shards
from repro.soc import (
    FaultSchedule,
    InitiatorSpec,
    LinkSpec,
    SocBuilder,
    TargetSpec,
)
from repro.sweep.parallel import run_sharded
from repro.transport import topology as topo


def canonical(fingerprint) -> str:
    """Byte-stable rendering: identical fingerprints, identical bytes."""
    return json.dumps(fingerprint, sort_keys=True)


RANGES = [(0, 0x2000), (0x2000, 0x2000)]

GALS_LINKS = {
    "router": LinkSpec(phit_bits=48, pipeline_latency=1),
    "endpoint": LinkSpec(phit_bits=96, sync_stages=3),
}


def _add_gals_endpoints(builder):
    """The heterogeneous initiator/target mix of the kernel-determinism
    GALS SoCs (regions span three clock domains)."""
    builder.add_initiator(
        InitiatorSpec(
            "cpu_ahb", "AHB",
            TrafficSpec(kind="dependent", pairs=RANGES, count=15, seed=1),
            region="cpu",
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "gpu_axi", "AXI",
            TrafficSpec(
                kind="poisson", pairs=RANGES, count=15, seed=2, tags=4,
                rate=0.3, burst_beats=(1, 4),
            ),
            protocol_kwargs={"id_count": 4},
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "acc_msg", "PROPRIETARY",
            TrafficSpec(kind="stream", base=0x1000, bytes_total=128),
        )
    )
    builder.add_target(
        TargetSpec("dram", size=0x2000, read_latency=6, write_latency=3,
                   region="io")
    )
    builder.add_target(
        TargetSpec("sram", size=0x2000, read_latency=2, write_latency=1,
                   region="cpu")
    )
    return builder


def build_sharded_gals(shards, **extra):
    """The GALS determinism SoC, sharded (trace disabled: rejected)."""
    builder = SocBuilder(
        shards=shards,
        links=GALS_LINKS,
        clock_domains={"cpu": 2, "io": (3, 1), "fab": 1},
        fabric_region="fab",
        **extra,
    )
    return _add_gals_endpoints(builder).build()


def build_sharded_vc_gals(shards):
    return build_sharded_gals(
        shards,
        topology=topo.torus(3, 3, endpoints=5),
        routing="dor",
        vcs=2,
        vc_policy="dateline",
    )


def build_sharded_adaptive_gals(shards):
    return build_sharded_gals(
        shards,
        topology=topo.torus(3, 3, endpoints=5),
        routing="adaptive",
        vcs=4,
    )


VARIANTS = {
    "gals": (build_sharded_gals, 3000),
    "vc": (build_sharded_vc_gals, 4000),
    "adaptive": (build_sharded_adaptive_gals, 4000),
}


# --------------------------------------------------------------------- #
# the determinism bar: N workers == one process, byte for byte
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_fingerprint_matches_single_process(variant, shards):
    build, cycles = VARIANTS[variant]
    reference = run_sharded(
        lambda: build(shards), cycles=cycles, processes=0
    )
    parallel = run_sharded(
        lambda: build(shards), cycles=cycles, processes=shards
    )
    assert canonical(parallel["fingerprint"]) == canonical(
        reference["fingerprint"]
    )
    assert parallel["cycle"] == reference["cycle"] == cycles
    # The workload actually crossed the cuts — otherwise the test is
    # vacuous — and the round protocol did batch at barriers.
    assert parallel["timing"]["boundary_flits"] > 0
    assert parallel["timing"]["rounds"] > 1
    assert parallel["metrics"]["completed"] == reference["metrics"]["completed"]
    assert (
        parallel["metrics"]["flits_forwarded"]
        == reference["metrics"]["flits_forwarded"]
    )


def test_sharded_run_is_deterministic_across_repeats():
    build, cycles = VARIANTS["vc"]
    first = run_sharded(lambda: build(2), cycles=cycles, processes=2)
    second = run_sharded(lambda: build(2), cycles=cycles, processes=2)
    assert canonical(first["fingerprint"]) == canonical(second["fingerprint"])


# --------------------------------------------------------------------- #
# boundary adversary: wormholes mid-flight across the cut at barriers
# --------------------------------------------------------------------- #
def build_wormhole_adversary(shards=2):
    """A 2x1 mesh cut between its only two routers, narrow phits (many
    phits per flit, so serialization spans barriers), long bursts (many
    flits per wormhole, so packets are mid-flight across the cut at
    every exchange) and tiny buffers (credit backpressure is live)."""
    builder = SocBuilder(
        shards=shards,
        topology=topo.mesh(2, 1, endpoints=4),
        links={"router": LinkSpec(phit_bits=16, pipeline_latency=2)},
        buffer_capacity=2,
    )
    builder.add_initiator(InitiatorSpec(
        "cpu0", "AXI",
        TrafficSpec(kind="poisson", pairs=RANGES, count=20, seed=7,
                    rate=0.8, burst_beats=(8, 8)),
        protocol_kwargs={"id_count": 2},
    ))
    builder.add_initiator(InitiatorSpec(
        "cpu1", "AHB",
        TrafficSpec(kind="dependent", pairs=RANGES, count=20, seed=8),
    ))
    builder.add_target(TargetSpec(
        "dram", size=0x2000, read_latency=4, write_latency=2))
    builder.add_target(TargetSpec(
        "sram", size=0x2000, read_latency=1, write_latency=1))
    return builder.build()


def test_mid_wormhole_boundary_cut_is_exact():
    reference = run_sharded(build_wormhole_adversary, cycles=6000, processes=0)
    parallel = run_sharded(build_wormhole_adversary, cycles=6000, processes=2)
    assert canonical(parallel["fingerprint"]) == canonical(
        reference["fingerprint"]
    )
    # With 8-beat bursts over 16-bit phits the adversary must actually
    # stream multi-flit wormholes across the cut.
    assert parallel["timing"]["boundary_flits"] > 50
    assert parallel["metrics"]["completed"] > 0


# --------------------------------------------------------------------- #
# rejection paths: every unsupported combination fails loudly at build
# --------------------------------------------------------------------- #
def _minimal_builder(**kwargs):
    builder = SocBuilder(
        topology=topo.mesh(2, 1, endpoints=2),
        links={"router": LinkSpec(phit_bits=32, pipeline_latency=1)},
        **kwargs,
    )
    builder.add_initiator(InitiatorSpec(
        "cpu0", "AHB",
        TrafficSpec(kind="dependent", pairs=RANGES, count=4, seed=1)))
    builder.add_target(TargetSpec(
        "mem", size=0x4000, read_latency=2, write_latency=1))
    return builder


def test_transparent_router_links_rejected():
    builder = _minimal_builder(shards=2)
    builder.links = None  # ideal wires: zero lookahead across the cut
    with pytest.raises(ShardConfigError, match="transparent"):
        builder.build()


def test_faults_with_shards_rejected():
    builder = _minimal_builder(
        shards=2,
        faults=FaultSchedule().link_down(100, (0, 0), (1, 0)),
    )
    with pytest.raises(ShardConfigError, match="fault injection"):
        builder.build()


def test_strict_kernel_with_shards_rejected():
    builder = _minimal_builder(shards=2, strict_kernel=True)
    with pytest.raises(ShardConfigError, match="strict"):
        builder.build()


def test_enabled_tracer_with_shards_rejected():
    from repro.sim.trace import Tracer

    builder = _minimal_builder(shards=2, trace=Tracer(enabled=True))
    with pytest.raises(ShardConfigError, match="trac"):
        builder.build()


def test_snapshot_of_sharded_build_rejected():
    soc = _minimal_builder(shards=2).build()
    with pytest.raises(ShardConfigError, match="snapshot"):
        soc.snapshot()


def test_run_sharded_requires_a_sharded_build():
    with pytest.raises(ShardConfigError, match="shards"):
        run_sharded(
            lambda: _minimal_builder().build(), cycles=100, processes=0
        )


def test_worker_count_must_match_shard_count():
    from repro.sweep.parallel import ShardWorkerError

    with pytest.raises((ShardConfigError, ShardWorkerError)):
        run_sharded(
            lambda: _minimal_builder(shards=2).build(),
            cycles=100,
            processes=3,
        )


def test_every_component_and_queue_has_exactly_one_owner():
    """No plane-wide executors: the ownership map is a total function
    from registered components and queues onto the plan's shards."""
    soc = build_sharded_adaptive_gals(2)
    ownership = soc.shard_ownership
    assert sorted(ownership.component_owner) == sorted(
        c.name for c in soc.sim.components
    )
    assert sorted(ownership.queue_owner) == sorted(soc.sim._queue_names)
    owners = set(ownership.component_owner.values()) | set(
        ownership.queue_owner.values()
    )
    assert owners == {0, 1}


# --------------------------------------------------------------------- #
# plans: auto-partitioner and explicit-plan validation
# --------------------------------------------------------------------- #
def test_plan_shards_balanced_stripes():
    topology = topo.mesh(4, 4, endpoints=16)
    plan = plan_shards(topology, 4)
    sizes = {}
    for router_id in topology.routers:
        sizes.setdefault(plan.shard_of(router_id), 0)
        sizes[plan.shard_of(router_id)] += 1
    assert sizes == {0: 4, 1: 4, 2: 4, 3: 4}
    # Column-major stripes on a mesh: each cut is one column of links.
    assert len(plan.cut_edges(topology)) == 3 * 4 * 2  # 3 cuts, 4 rows, 2 dirs


def test_plan_shards_rejects_degenerate_counts():
    topology = topo.mesh(2, 1, endpoints=2)
    with pytest.raises(ShardConfigError, match="at least 2"):
        plan_shards(topology, 1)
    with pytest.raises(ShardConfigError, match="cannot split"):
        plan_shards(topology, 3)


def test_explicit_plan_must_partition_the_topology():
    topology = topo.mesh(2, 1, endpoints=2)
    with pytest.raises(ShardConfigError, match="at least 2"):
        ShardPlan(assignment={(0, 0): 0, (1, 0): 0}, n_shards=1)
    incomplete = ShardPlan(assignment={(0, 0): 0}, n_shards=2)
    with pytest.raises(ShardConfigError, match="missing"):
        incomplete.validate(topology)
    lopsided = ShardPlan(
        assignment={(0, 0): 0, (1, 0): 0}, n_shards=2
    )
    with pytest.raises(ShardConfigError, match="empty"):
        lopsided.validate(topology)
    with pytest.raises(ShardConfigError, match="credit_return_latency"):
        ShardPlan(
            assignment={(0, 0): 0, (1, 0): 1},
            n_shards=2,
            credit_return_latency=0,
        )


def test_explicit_plan_drives_the_build():
    plan = ShardPlan(
        assignment={(0, 0): 1, (1, 0): 0}, n_shards=2,
        credit_return_latency=3,
    )
    soc = _minimal_builder(shards=plan).build()
    assert soc.shard_plan is plan
    reference = run_sharded(
        lambda: _minimal_builder(shards=plan).build(),
        cycles=2000, processes=0,
    )
    parallel = run_sharded(
        lambda: _minimal_builder(shards=plan).build(),
        cycles=2000, processes=2,
    )
    assert canonical(parallel["fingerprint"]) == canonical(
        reference["fingerprint"]
    )
