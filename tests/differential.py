"""The determinism contract, written once: named SoC recipes, one run.

The layered NoC is checked as one contract: the activity kernel ≡ the
strict reference kernel, a restored run ≡ the uninterrupted one, a forked
continuation ≡ a cold run and the router's streaming fast path ≡ its
reference phases.  Every side of those comparisons is a :func:`run` of a
recipe named in :data:`RECIPES`, compared by :func:`assert_same`.  An
uninterrupted run is computed at most once per pytest session
(:data:`COMPUTED` counts, ``conftest.py`` checks) and shared by every
test that compares against it.  :data:`PINNED` holds the
``fingerprint_hash`` of each recipe at its window, so a change to the
model fails tier-1 wherever it lands; a change that moves a digest on
purpose re-pins it and names it in CHANGES.md.

Test modules import from here, never from one another.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

from repro.ip import TrafficSpec
from repro.sim.fingerprint import fingerprint_soc, reset_ids
from repro.sim.trace import Tracer
from repro.soc import (
    FaultSchedule,
    InitiatorSpec,
    LinkSpec,
    SocBuilder,
    TargetSpec,
)
from repro.sweep import Checkpoint
from repro.transport import topology as topo
from repro.workloads import scenarios

# The benchmark's own builders and digest, read-only.
_E2E = str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e")
sys.path.insert(0, _E2E)
try:
    import workloads as e2e
finally:
    sys.path.remove(_E2E)


# --------------------------------------------------------------------- #
# recipes: strict -> a freshly built SoC
# --------------------------------------------------------------------- #
def mixed_soc(strict):
    """Heterogeneous-protocol SoC covering AHB/AXI/OCP/proprietary NIUs."""
    ranges = [(0, 0x4000), (0x4000, 0x4000)]
    builder = SocBuilder(trace=Tracer(enabled=True), strict_kernel=strict)
    builder.add_initiator(InitiatorSpec(
        "cpu_ahb", "AHB",
        TrafficSpec(kind="dependent", pairs=ranges, count=20, seed=1),
    ))
    builder.add_initiator(InitiatorSpec(
        "gpu_axi", "AXI",
        TrafficSpec(kind="poisson", pairs=ranges, count=20, seed=2, tags=4,
                    rate=0.3, burst_beats=(1, 4, 8)),
        protocol_kwargs={"id_count": 4},
    ))
    builder.add_initiator(InitiatorSpec(
        "dsp_ocp", "OCP",
        TrafficSpec(kind="poisson", pairs=ranges, count=20, seed=3,
                    threads=2, rate=0.3),
        protocol_kwargs={"threads": 2},
    ))
    builder.add_initiator(InitiatorSpec(
        "acc_msg", "PROPRIETARY",
        TrafficSpec(kind="stream", base=0x2000, bytes_total=256),
    ))
    builder.add_target(
        TargetSpec("dram", size=0x4000, read_latency=6, write_latency=3)
    )
    builder.add_target(
        TargetSpec("sram", size=0x4000, read_latency=2, write_latency=1)
    )
    return builder.build()


def saturated_mixed_soc(strict, rate=0.95, **fabric):
    """The e2e ``mixed_saturated`` SoC (paper Fig 2: AHB, AXI, OCP, BVCI
    and proprietary masters, two memories), every source open loop at
    ``rate``: NIUs refuse on tag policy and masters sit at their own
    outstanding limit for most of the run.  Untraced — the memo and
    short-circuit guards run it for thousands of cycles."""
    ranges = [(0, 0x4000), (0x4000, 0x4000)]

    def source(offset, **extra):
        return TrafficSpec(
            kind="poisson", seed=1105 + offset, count=10**9, rate=rate,
            pairs=ranges, **extra,
        )

    builder = SocBuilder(strict_kernel=strict, **fabric)
    builder.add_initiator(InitiatorSpec("cpu_ahb", "AHB", source(1)))
    builder.add_initiator(InitiatorSpec(
        "gpu_axi", "AXI", source(2, tags=4, burst_beats=(1, 4, 8)),
        protocol_kwargs={"id_count": 4},
    ))
    builder.add_initiator(InitiatorSpec(
        "dsp_ocp", "OCP", source(3, threads=2),
        protocol_kwargs={"threads": 2},
    ))
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


def saturated_adaptive_torus_soc(strict):
    """The saturated mixed SoC on a 3x3 adaptive torus."""
    return saturated_mixed_soc(strict, topology=topo.torus(3, 3, endpoints=7),
                               routing="adaptive", vcs=3)


def lock_soc(strict):
    """Legacy-lock critical sections: exercises router LOCK ownership and
    target-NIU lock managers, the stateful transport paths."""
    builder = SocBuilder(trace=Tracer(enabled=True), strict_kernel=strict)
    for i in range(2):
        builder.add_initiator(InitiatorSpec(
            f"sync{i}", "AHB",
            TrafficSpec(kind="sync", style="lock", sema_addr=0x0,
                        work_addr=0x100 + 0x40 * i, iterations=3),
        ))
    builder.add_target(
        TargetSpec("mem", size=0x1000, read_latency=2, write_latency=1)
    )
    return builder.build()


def gals_soc(strict, **fabric):
    """GALS + narrow serialized links + CDC boundaries: initiators and
    targets in three clock regions, a distinct fabric domain, phit-level
    serialization on every class of link and wire pipelining between
    routers — the physical layer at its least transparent.  ``fabric``
    adds the transport knobs of the VC, adaptive and faulted variants."""
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
        **fabric,
    )
    builder.add_initiator(InitiatorSpec(
        "cpu_ahb", "AHB",
        TrafficSpec(kind="dependent", pairs=ranges, count=15, seed=1),
        region="cpu",
    ))
    builder.add_initiator(InitiatorSpec(
        "gpu_axi", "AXI",
        TrafficSpec(kind="poisson", pairs=ranges, count=15, seed=2, tags=4,
                    rate=0.3, burst_beats=(1, 4)),
        protocol_kwargs={"id_count": 4},
    ))
    builder.add_initiator(InitiatorSpec(
        "acc_msg", "PROPRIETARY",
        TrafficSpec(kind="stream", base=0x1000, bytes_total=128),
    ))
    builder.add_target(TargetSpec(
        "dram", size=0x2000, read_latency=6, write_latency=3, region="io",
    ))
    builder.add_target(TargetSpec(
        "sram", size=0x2000, read_latency=2, write_latency=1, region="cpu",
    ))
    return builder.build()


def vc_gals_soc(strict):
    """Virtual channels + GALS + serialized links: a 2-VC dateline torus
    under DOR routing, VC-multiplexed physical links (per-VC credits) on
    every connection and three clock regions."""
    return gals_soc(strict, topology=topo.torus(3, 3, endpoints=5),
                    routing="dor", vcs=2, vc_policy="dateline")


def adaptive_gals_soc(strict, **faults):
    """Adaptive routing + escape VCs + GALS + serialized links: the
    congestion-scored allocation decision stream and the per-pair
    resequencing at ejection."""
    return gals_soc(strict, topology=topo.torus(3, 3, endpoints=5),
                    routing="adaptive", vcs=4, **faults)


def faulted_adaptive_gals_soc(strict):
    """The adaptive GALS SoC with a mid-run link failure and heal: fault
    epochs flip route tables and mask ports while CDC and serialized
    links are live (the wheel must land on each fault edge exactly)."""
    return adaptive_gals_soc(strict, faults=(
        FaultSchedule().link_down(400, (0, 0), (1, 0)).link_up(900, (0, 0), (1, 0))
    ))


def vc_torus_soc(strict):
    """Unsharded miniature of the e2e ``sharded_torus_2p`` fabric (a
    sharded build rejects the strict kernel): 4x4 DOR/dateline torus,
    2 VCs multiplexed over narrow pipelined links with per-VC credit
    loops, and 12 open-loop AXI masters offered far more than the
    fabric carries — they sit at their own outstanding limit, and their
    NIUs hold responses back in ID order, for most of the run."""
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
        builder.add_initiator(InitiatorSpec(
            f"ip{index}", "AXI",
            TrafficSpec(kind="poisson", seed=30 + index, count=10**9,
                        rate=0.5, pairs=ranges, tags=4, burst_beats=(4, 8)),
            protocol_kwargs={"id_count": 4},
        ))
    for index in range(4):
        builder.add_target(TargetSpec(
            f"mem{index}", size=0x1000, read_latency=3, write_latency=2,
        ))
    return builder.build()


def hotspot_soc(routing, strict=None):
    """4x4 torus: six masters hammer one slow target ("hot", long
    latencies and a one-deep outstanding window, so its backpressure
    tree reaches deep into the fabric); six more stream to three fast
    background targets whose DOR paths share links with that tree.
    ``strict`` selects the kernel as ``SocBuilder(strict_kernel=)``."""
    reset_ids()
    hot_range = [(0, 0x2000)]
    bg_ranges = [(0x2000, 0x2000), (0x4000, 0x2000), (0x6000, 0x2000)]
    if routing == "adaptive":
        fabric = dict(routing="adaptive", vcs=3, vc_policy="escape")
    else:
        fabric = dict(routing="dor", vcs=2, vc_policy="dateline")
    builder = SocBuilder(topology=topo.torus(4, 4, endpoints=16),
                         strict_kernel=strict, **fabric)
    for index in range(12):
        hot = index % 2 == 0
        builder.add_initiator(InitiatorSpec(
            f"ip{index}", "AXI",
            TrafficSpec(kind="poisson", pairs=hot_range if hot else bg_ranges,
                        count=100_000, seed=20 + index,
                        rate=0.9 if hot else 0.7, tags=4,
                        burst_beats=(4, 8)),
            protocol_kwargs={"id_count": 4},
        ))
    builder.add_target(TargetSpec("hot", size=0x2000, read_latency=14,
                                  write_latency=7, max_outstanding=1))
    for name in ("bg0", "bg1", "bg2"):
        builder.add_target(TargetSpec(name, size=0x2000, read_latency=2,
                                      write_latency=1))
    return builder.build()


def _scenario(name, strict):
    return getattr(scenarios, name).build(strict_kernel=strict)


def _e2e_soc(name, strict):
    return e2e.WORKLOADS[name]().builder(1105, strict).build()


SCENARIOS = ("dma_chain", "stream_pipeline", "collective_allreduce")
#: The e2e workloads that run in one process (``sharded_torus_2p`` runs
#: in workers), built as the benchmark builds them at seed 1105.
E2E_SOCS = tuple(
    sorted(name for name, w in e2e.WORKLOADS.items() if w.single_process)
)

#: Names that build the same SoC as another recipe, and so share its
#: runs: ``sweep_fork4``'s prefix is ``mixed_saturated`` at the same rate
#: (``test_differential.py`` checks that it still is).
ALIASES = {"sweep_fork4": "mixed_saturated"}

RECIPES = {
    "mixed-protocols": mixed_soc,
    "saturated-mixed": saturated_mixed_soc,
    "saturated-adaptive-torus": saturated_adaptive_torus_soc,
    "legacy-lock": lock_soc,
    "gals-serialized-links": gals_soc,
    "vc-dateline-gals": vc_gals_soc,
    "adaptive-escape-gals": adaptive_gals_soc,
    "faulted-adaptive-gals": faulted_adaptive_gals_soc,
    "vc-torus-saturated": vc_torus_soc,
    "adaptive-hotspot": lambda strict: hotspot_soc("adaptive", strict),
    "dor-hotspot": lambda strict: hotspot_soc("dor", strict),
    **{name: functools.partial(_scenario, name) for name in SCENARIOS},
    **{
        name: functools.partial(_e2e_soc, name)
        for name in E2E_SOCS if name not in ALIASES
    },
}

#: The window at which strict ≡ activity is checked for each recipe
#: (``test_kernel_determinism.py``); the other contracts reuse them.
WINDOWS = {
    "mixed-protocols": 4000,
    "legacy-lock": 3000,
    "gals-serialized-links": 5000,
    "vc-dateline-gals": 5000,
    "adaptive-escape-gals": 5000,
    "faulted-adaptive-gals": 5000,
    "vc-torus-saturated": 1000,
    "adaptive-hotspot": 1500,
}

#: ``fingerprint_hash`` of each recipe's activity-kernel run at its
#: window (``None``: run to completion), all taken before the harness
#: existed: the six e2e SoCs' 500-cycle windows come from
#: ``test_fabric_wiring.py`` (taken before the router's ticks were split
#: into phases), the rest from the test files' own recipes at the commit
#: that folded them into this module.
PINNED = {
    ("dma_completion", 500): "51466a6976f0eee0",
    ("gals_links", 500): "9681546a070ca89f",
    ("mixed_saturated", 500): "b6b86f26f89e672b",
    ("mixed_sparse", 500): "742b621aa2a41b2c",
    ("sweep_fork4", 500): "b6b86f26f89e672b",
    ("torus_hotspot", 500): "1f1f9f1172709ad9",
    ("collective_allreduce", None): "d15c779f84d1ba9e",
    ("dma_chain", None): "23fe7f8c4d1e91a0",
    ("stream_pipeline", None): "4bad5cfd080ed43c",
    ("mixed-protocols", 4000): "0bc43f96eeaf3758",
    ("legacy-lock", 3000): "5cdaa30f414f6bc8",
    ("gals-serialized-links", 5000): "bc2b46f47056837b",
    ("vc-dateline-gals", 5000): "414ac32ca91c2df9",
    ("adaptive-escape-gals", 5000): "baca38f79363f73d",
    ("faulted-adaptive-gals", 5000): "b7c104cd6fceb9b1",
    ("vc-torus-saturated", 1000): "2580855f6868cd59",
    ("adaptive-hotspot", 1500): "bd4060eacffb1a47",
}


# --------------------------------------------------------------------- #
# runs
# --------------------------------------------------------------------- #
KERNELS = ("activity", "strict")


class Run(NamedTuple):
    """What a finished run leaves to compare.  ``cycles_skipped`` and
    ``ordering_violations`` are read beside the fingerprint, which holds
    neither; ``checkpoint`` is the one a cut run restored from.  A
    memoised run is shared by every test that asks: read it, never
    mutate it."""

    fingerprint: dict
    digest: str
    cycles_skipped: int
    ordering_violations: int
    checkpoint: Optional[Checkpoint] = None


#: Uninterrupted runs, by (recipe, cycles, kernel, fast_path).
_RUNS = {}
#: How often each uninterrupted key was computed; never above 1.
COMPUTED = Counter()


def build(recipe, kernel="activity", *, fast_path=True):
    """A fresh SoC of ``recipe`` on ``kernel``, global ids reset first.
    ``fast_path=False`` runs every router tick through the reference
    phases (the flag is cleared after construction, so the router must
    read it in the tick)."""
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    reset_ids()
    soc = RECIPES[ALIASES.get(recipe, recipe)](kernel == "strict")
    if not fast_path:
        for plane in soc.fabric._planes:
            for router in plane.routers.values():
                router.stream_fast_path = False
    return soc


def observe(soc, checkpoint=None):
    """The :class:`Run` of ``soc`` as it stands."""
    fingerprint = fingerprint_soc(soc)
    return Run(fingerprint, e2e.fingerprint_hash(fingerprint),
               soc.sim.cycles_skipped, soc.ordering_violations(), checkpoint)


def _finish(soc, cycles):
    if cycles is None:
        soc.run_to_completion()
    else:
        soc.run(cycles - soc.sim.cycle)


def run(recipe, cycles, kernel="activity", cut=None, restore="rebuilt", *,
        probe=None, fast_path=True):
    """Run ``recipe`` from cycle 0 to ``cycles`` (``None``: to completion)
    and return its :class:`Run`.

    Uninterrupted runs are memoised for the session.  With ``cut``, the
    run is captured at that cycle, the donor runs on 97 cycles (the
    checkpoint must be detached from it), and the checkpoint is restored
    into a congruent rebuild (``restore="rebuilt"``) or into the donor
    itself (``"same-soc"``), which finishes the run.  ``probe(soc)``
    returns state the cut is meant to catch mid-flight: every element
    must be truthy on the donor at the cut, and the restored SoC must
    read the same.
    """
    if cut is None:
        key = (ALIASES.get(recipe, recipe), cycles, kernel, fast_path)
        if key not in _RUNS:
            COMPUTED[key] += 1
            soc = build(recipe, kernel, fast_path=fast_path)
            _finish(soc, cycles)
            _RUNS[key] = observe(soc)
        return _RUNS[key]
    if restore not in ("rebuilt", "same-soc"):
        raise ValueError(f"restore must be 'rebuilt' or 'same-soc', got {restore!r}")
    donor = build(recipe, kernel, fast_path=fast_path)
    donor.run(cut)
    checkpoint = Checkpoint.capture(donor)
    assert checkpoint.cycle == cut
    at_cut = probe(donor) if probe is not None else None
    donor.run(97)
    resumed = donor if restore == "same-soc" else build(
        recipe, kernel, fast_path=fast_path
    )
    checkpoint.restore_into(resumed)
    assert resumed.sim.cycle == cut
    if probe is not None:
        assert all(at_cut) and probe(resumed) == at_cut
    _finish(resumed, cycles)
    return observe(resumed, checkpoint)


def assert_same(got, want):
    """The one compare: ``got`` and ``want`` (runs or fingerprints) are
    byte-identical, reported by the first key that diverged."""
    got = getattr(got, "fingerprint", got)
    want = getattr(want, "fingerprint", want)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], f"{key} diverged"
