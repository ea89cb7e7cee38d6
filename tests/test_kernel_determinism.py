"""Activity-driven kernel vs brute-force reference: byte-identical runs.

The activity scheduler (wake/next_event_cycle, dirty-queue commits,
router early exits) is only legal if it is an *optimisation*: every
seeded workload must produce exactly the same per-component stats, queue
counters and trace sequence as ``Simulator(strict=True)``, which ticks
every component and commits every queue each cycle.  These tests pin
that contract.
"""

import pytest

import repro.core.transaction as txn_mod
import repro.transport.flit as flit_mod
from repro.ip.masters import (
    cpu_workload,
    dma_workload,
    random_workload,
    sync_workload,
)
from repro.ip.traffic import TrafficSpec
from repro.sim.fingerprint import fingerprint, reset_ids
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.soc import (
    FaultSchedule,
    InitiatorSpec,
    LinkSpec,
    SocBuilder,
    TargetSpec,
)
from repro.transport import topology as topo


@pytest.fixture(autouse=True)
def _fresh_global_ids():
    """txn/packet ids come from process-global counters; reset them so the
    two builds of the same SoC are byte-comparable."""
    txn_ids, packet_ids = txn_mod._txn_ids, flit_mod._flit_packet_ids
    yield
    txn_mod._txn_ids, flit_mod._flit_packet_ids = txn_ids, packet_ids


_reset_ids = reset_ids


def build_mixed_soc(strict):
    """Heterogeneous-protocol SoC covering AHB/AXI/OCP/proprietary NIUs."""
    _reset_ids()
    ranges = [(0, 0x4000), (0x4000, 0x4000)]
    builder = SocBuilder(trace=Tracer(enabled=True), strict_kernel=strict)
    builder.add_initiator(
        InitiatorSpec(
            "cpu_ahb", "AHB", cpu_workload("cpu_ahb", ranges, count=20, seed=1)
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "gpu_axi", "AXI",
            random_workload(
                "gpu_axi", ranges, count=20, seed=2, tags=4, rate=0.3,
                burst_beats=(1, 4, 8),
            ),
            protocol_kwargs={"id_count": 4},
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "dsp_ocp", "OCP",
            random_workload("dsp_ocp", ranges, count=20, seed=3, threads=2,
                            rate=0.3),
            protocol_kwargs={"threads": 2},
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "acc_msg", "PROPRIETARY",
            dma_workload("acc_msg", base=0x2000, bytes_total=256),
        )
    )
    builder.add_target(
        TargetSpec("dram", size=0x4000, read_latency=6, write_latency=3)
    )
    builder.add_target(
        TargetSpec("sram", size=0x4000, read_latency=2, write_latency=1)
    )
    return builder.build()


def build_saturated_mixed_soc(strict, rate=0.95, **fabric):
    """The e2e ``mixed_saturated`` SoC (paper Fig 2: AHB, AXI, OCP, BVCI
    and proprietary masters, two memories), every source open loop at
    ``rate``: NIUs refuse on tag policy and masters sit at their own
    outstanding limit for most of the run.  Untraced — the memo and
    short-circuit guards run it for thousands of cycles."""
    _reset_ids()
    ranges = [(0, 0x4000), (0x4000, 0x4000)]

    def source(offset, **extra):
        return TrafficSpec(
            kind="poisson", seed=1105 + offset, count=10**9, rate=rate,
            pairs=ranges, **extra,
        )

    builder = SocBuilder(strict_kernel=strict, **fabric)
    builder.add_initiator(InitiatorSpec("cpu_ahb", "AHB", source(1)))
    builder.add_initiator(
        InitiatorSpec(
            "gpu_axi", "AXI", source(2, tags=4, burst_beats=(1, 4, 8)),
            protocol_kwargs={"id_count": 4},
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "dsp_ocp", "OCP", source(3, threads=2),
            protocol_kwargs={"threads": 2},
        )
    )
    builder.add_initiator(InitiatorSpec("io_bvci", "BVCI", source(4)))
    builder.add_initiator(
        InitiatorSpec("acc_msg", "PROPRIETARY", source(5, burst_beats=(8,)))
    )
    builder.add_target(
        TargetSpec("dram", size=0x4000, read_latency=6, write_latency=3)
    )
    builder.add_target(
        TargetSpec("sram", size=0x4000, read_latency=2, write_latency=1)
    )
    return builder.build()


def build_lock_soc(strict):
    """Legacy-lock critical sections: exercises router LOCK ownership and
    target-NIU lock managers, the stateful transport paths."""
    _reset_ids()
    builder = SocBuilder(trace=Tracer(enabled=True), strict_kernel=strict)
    for i in range(2):
        builder.add_initiator(
            InitiatorSpec(
                f"sync{i}", "AHB",
                sync_workload(f"sync{i}", "lock", sema_addr=0x0,
                              work_addr=0x100 + 0x40 * i, iterations=3,
                              seed=i),
            )
        )
    builder.add_target(
        TargetSpec("mem", size=0x1000, read_latency=2, write_latency=1)
    )
    return builder.build()


def build_gals_soc(strict):
    """GALS + narrow serialized links + CDC boundaries: initiators and
    targets in three clock regions, a distinct fabric domain, phit-level
    serialization on every class of link and wire pipelining between
    routers — the physical layer at its least transparent."""
    _reset_ids()
    ranges = [(0, 0x2000), (0x2000, 0x2000)]
    builder = SocBuilder(
        trace=Tracer(enabled=True),
        strict_kernel=strict,
        links={
            "router": LinkSpec(phit_bits=48, pipeline_latency=1),
            "endpoint": LinkSpec(phit_bits=96, sync_stages=3),
        },
        clock_domains={"cpu": 2, "io": (3, 1), "fab": 1},
        fabric_region="fab",
    )
    builder.add_initiator(
        InitiatorSpec(
            "cpu_ahb", "AHB",
            cpu_workload("cpu_ahb", ranges, count=15, seed=1),
            region="cpu",
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "gpu_axi", "AXI",
            random_workload(
                "gpu_axi", ranges, count=15, seed=2, tags=4, rate=0.3,
                burst_beats=(1, 4),
            ),
            protocol_kwargs={"id_count": 4},
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "acc_msg", "PROPRIETARY",
            dma_workload("acc_msg", base=0x1000, bytes_total=128),
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
    return builder.build()


def build_vc_gals_soc(strict):
    """Virtual channels + GALS + serialized links: a 2-VC dateline torus
    under DOR routing, VC-multiplexed physical links (per-VC credits) on
    every connection and three clock regions — the new transport machinery
    at its least transparent, pinned byte-identical between kernels."""
    _reset_ids()
    ranges = [(0, 0x2000), (0x2000, 0x2000)]
    builder = SocBuilder(
        trace=Tracer(enabled=True),
        strict_kernel=strict,
        topology=topo.torus(3, 3, endpoints=5),
        routing="dor",
        vcs=2,
        vc_policy="dateline",
        links={
            "router": LinkSpec(phit_bits=48, pipeline_latency=1),
            "endpoint": LinkSpec(phit_bits=96, sync_stages=3),
        },
        clock_domains={"cpu": 2, "io": (3, 1), "fab": 1},
        fabric_region="fab",
    )
    builder.add_initiator(
        InitiatorSpec(
            "cpu_ahb", "AHB",
            cpu_workload("cpu_ahb", ranges, count=15, seed=1),
            region="cpu",
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "gpu_axi", "AXI",
            random_workload(
                "gpu_axi", ranges, count=15, seed=2, tags=4, rate=0.3,
                burst_beats=(1, 4),
            ),
            protocol_kwargs={"id_count": 4},
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "acc_msg", "PROPRIETARY",
            dma_workload("acc_msg", base=0x1000, bytes_total=128),
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
    return builder.build()


def build_adaptive_gals_soc(strict):
    """Adaptive routing + escape VCs + GALS + serialized links: minimal-
    adaptive route choice is a per-cycle congestion-scored allocation
    decision, so this pins that the decision stream — and the per-pair
    resequencing at ejection — is byte-identical between kernels."""
    _reset_ids()
    ranges = [(0, 0x2000), (0x2000, 0x2000)]
    builder = SocBuilder(
        trace=Tracer(enabled=True),
        strict_kernel=strict,
        topology=topo.torus(3, 3, endpoints=5),
        routing="adaptive",
        vcs=4,
        links={
            "router": LinkSpec(phit_bits=48, pipeline_latency=1),
            "endpoint": LinkSpec(phit_bits=96, sync_stages=3),
        },
        clock_domains={"cpu": 2, "io": (3, 1), "fab": 1},
        fabric_region="fab",
    )
    builder.add_initiator(
        InitiatorSpec(
            "cpu_ahb", "AHB",
            cpu_workload("cpu_ahb", ranges, count=15, seed=1),
            region="cpu",
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "gpu_axi", "AXI",
            random_workload(
                "gpu_axi", ranges, count=15, seed=2, tags=4, rate=0.3,
                burst_beats=(1, 4),
            ),
            protocol_kwargs={"id_count": 4},
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "acc_msg", "PROPRIETARY",
            dma_workload("acc_msg", base=0x1000, bytes_total=128),
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
    return builder.build()


def build_faulted_adaptive_gals_soc(strict):
    """The adaptive GALS SoC with a mid-run link failure and heal: fault
    epochs flip route tables and mask ports while CDC and serialized
    links are live, so this pins that fault application — and the
    degraded-mode decision stream behind it — is byte-identical between
    kernels (the wheel must land on each fault edge exactly)."""
    soc = _build_gals_like(
        strict,
        routing="adaptive",
        vcs=4,
        faults=(FaultSchedule()
                .link_down(400, (0, 0), (1, 0))
                .link_up(900, (0, 0), (1, 0))),
    )
    return soc


def _build_gals_like(strict, **extra):
    _reset_ids()
    ranges = [(0, 0x2000), (0x2000, 0x2000)]
    builder = SocBuilder(
        trace=Tracer(enabled=True),
        strict_kernel=strict,
        topology=topo.torus(3, 3, endpoints=5),
        links={
            "router": LinkSpec(phit_bits=48, pipeline_latency=1),
            "endpoint": LinkSpec(phit_bits=96, sync_stages=3),
        },
        clock_domains={"cpu": 2, "io": (3, 1), "fab": 1},
        fabric_region="fab",
        **extra,
    )
    builder.add_initiator(
        InitiatorSpec(
            "cpu_ahb", "AHB",
            cpu_workload("cpu_ahb", ranges, count=15, seed=1),
            region="cpu",
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "gpu_axi", "AXI",
            random_workload(
                "gpu_axi", ranges, count=15, seed=2, tags=4, rate=0.3,
                burst_beats=(1, 4),
            ),
            protocol_kwargs={"id_count": 4},
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "acc_msg", "PROPRIETARY",
            dma_workload("acc_msg", base=0x1000, bytes_total=128),
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
    return builder.build()


def build_vc_torus_soc(strict):
    """Unsharded miniature of the e2e ``sharded_torus_2p`` fabric (a
    sharded build rejects the strict kernel): 4x4 DOR/dateline torus,
    2 VCs multiplexed over narrow pipelined links with per-VC credit
    loops, and 12 open-loop AXI masters offered far more than the
    fabric carries — they sit at their own outstanding limit, and their
    NIUs hold responses back in ID order, for most of the run."""
    _reset_ids()
    ranges = [(i * 0x1000, 0x1000) for i in range(4)]
    builder = SocBuilder(
        trace=Tracer(enabled=True),
        strict_kernel=strict,
        topology=topo.torus(4, 4, endpoints=16),
        routing="dor",
        vcs=2,
        vc_policy="dateline",
        links={"router": LinkSpec(phit_bits=64, pipeline_latency=3)},
    )
    for index in range(12):
        builder.add_initiator(
            InitiatorSpec(
                f"ip{index}", "AXI",
                TrafficSpec(
                    kind="poisson", seed=30 + index, count=10**9, rate=0.5,
                    pairs=ranges, tags=4, burst_beats=(4, 8),
                ),
                protocol_kwargs={"id_count": 4},
            )
        )
    for index in range(4):
        builder.add_target(
            TargetSpec(f"mem{index}", size=0x1000, read_latency=3,
                       write_latency=2)
        )
    return builder.build()


@pytest.mark.parametrize(
    "build, cycles",
    [
        (build_mixed_soc, 4000),
        (build_lock_soc, 3000),
        (build_gals_soc, 5000),
        (build_vc_gals_soc, 5000),
        (build_adaptive_gals_soc, 5000),
        (build_faulted_adaptive_gals_soc, 5000),
        (build_vc_torus_soc, 1000),
    ],
    ids=[
        "mixed-protocols",
        "legacy-lock",
        "gals-serialized-links",
        "vc-dateline-gals",
        "adaptive-escape-gals",
        "faulted-adaptive-gals",
        "vc-torus-saturated",
    ],
)
def test_activity_kernel_matches_reference(build, cycles):
    activity = fingerprint(build(strict=False), cycles)
    reference = fingerprint(build(strict=True), cycles)
    for key in reference:
        assert activity[key] == reference[key], f"{key} diverged"


def test_limit_blocked_masters_do_not_tick():
    """Count guard (exact, noise-free) on the parking of limit-blocked
    masters: on the saturated torus every master spends most cycles
    refused by its own outstanding limit, and must be off the run list
    for them — not merely refused faster."""
    soc = build_vc_torus_soc(strict=False)
    ticks = dict.fromkeys(soc.masters, 0)
    for name, master in soc.masters.items():
        def counted(cycle, _name=name, _tick=master.tick):
            ticks[_name] += 1
            _tick(cycle)
        master.tick = counted
    soc.run(1000)
    assert soc.total_completed() > 300
    assert max(ticks.values()) < 500, ticks


def test_activity_kernel_completes_all_traffic():
    soc = build_mixed_soc(strict=False)
    soc.run_to_completion()
    assert all(m.finished() for m in soc.masters.values())
    # Once drained (and past a retire sweep) the whole SoC leaves the
    # schedule: quiescent cycles cost no component ticks at all.
    soc.run(16)
    assert soc.sim.active_count == 0
    assert len(soc.sim.components) > 0


def test_gals_soc_drains_and_retires():
    """Serialized links, CDC synchronizers and domain-gated components
    all honour the wake protocol: traffic completes and the quiescent
    GALS SoC leaves the schedule entirely."""
    soc = build_gals_soc(strict=False)
    soc.run_to_completion(max_cycles=400_000)
    assert all(m.finished() for m in soc.masters.values())
    assert soc.fabric.physical_links  # the phys path was actually built
    assert all(link.in_flight == 0 for link in soc.fabric.physical_links)
    soc.run(16)
    assert soc.sim.active_count == 0


def test_vc_gals_soc_drains_and_retires():
    """VC fabrics obey the wake protocol too: per-VC router state,
    VC-multiplexed links and their credit counters all go quiet, and the
    drained SoC leaves the schedule (active_count == 0)."""
    soc = build_vc_gals_soc(strict=False)
    soc.run_to_completion(max_cycles=400_000)
    assert all(m.finished() for m in soc.masters.values())
    assert soc.fabric.physical_links
    assert all(link.in_flight == 0 for link in soc.fabric.physical_links)
    for link in soc.fabric.physical_links:
        for credit in link.credits:
            assert credit.available == credit.capacity
    soc.run(16)
    assert soc.sim.active_count == 0


def test_adaptive_soc_drains_and_retires():
    """Adaptive fabrics obey the wake protocol: congestion-scored VC
    allocation, escape-network fallbacks and the ejection resequencing
    buffers all go quiet, and the drained SoC leaves the schedule."""
    soc = build_adaptive_gals_soc(strict=False)
    soc.run_to_completion(max_cycles=400_000)
    assert all(m.finished() for m in soc.masters.values())
    assert soc.ordering_violations() == 0
    for plane in soc.fabric._planes:
        for eport in plane.ejection_ports.values():
            assert eport.reorder_occupancy == 0
    soc.run(16)
    assert soc.sim.active_count == 0


def test_strict_env_flag(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_STRICT", "1")
    assert Simulator().strict is True
    monkeypatch.setenv("REPRO_SIM_STRICT", "0")
    assert Simulator().strict is False
    monkeypatch.delenv("REPRO_SIM_STRICT")
    assert Simulator().strict is False
