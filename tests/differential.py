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
purpose re-pins it and names it in CHANGES.md.  :func:`buffer_walk` is
the buffer walk that drain detection replaced, kept as the oracle the
packet count is checked against.

Test modules import from here, never from one another.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

from repro.bus import build_bus_soc
from repro.core.transaction import Opcode, Transaction, make_read, make_write
from repro.ip import TrafficSpec
from repro.phys.link import VcPhysicalLink
from repro.protocols.proprietary import make_fence
from repro.sim.fingerprint import fingerprint_soc
from repro.sim.trace import Tracer
from repro.soc import InitiatorSpec, LinkSpec, SocBuilder, TargetSpec
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
    adds the transport knobs of the VC and adaptive variants."""
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


def adaptive_gals_soc(strict):
    """Adaptive routing + escape VCs + GALS + serialized links: the
    congestion-scored allocation decision stream and the per-pair
    resequencing at ejection."""
    return gals_soc(strict, topology=topo.torus(3, 3, endpoints=5),
                    routing="adaptive", vcs=4)


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


def exclusive(txn):
    """``txn`` marked exclusive (the exclusive-pair half of an intent)."""
    txn.excl = True
    return txn


def pinned_bus_soc():
    """All seven families on the bus, to completion: an AXI exclusive
    loop, an AXI exclusive pair issued back to back behind a read and an
    OCP exclusive pair, an AHB locked sequence, an OCP posted write, a
    FENCE on the proprietary port and a 40-beat AXI burst over the
    16-beat cap, beside three Poisson VCI masters (built, not run)."""
    ranges = [(0, 0x2000), (0x2000, 0x2000)]
    scripted = {
        "cpu_ahb": ("AHB", {}, [
            make_write(0x100, [1, 2, 3, 4]), make_read(0x100, beats=4),
            Transaction(opcode=Opcode.READEX, address=0x40),
            Transaction(opcode=Opcode.STORE_COND_LOCKED, address=0x40, data=[7]),
            make_read(0x2040),
        ]),
        "gpu_axi": ("AXI", {}, [
            make_write(0x400, list(range(40))), make_read(0x400, beats=40),
            make_read(0x2400, beats=8, txn_tag=1), make_read(0x9000_0000),
        ]),
        "pair_axi": ("AXI", {}, [
            make_read(0x1400), exclusive(make_read(0x1440)),
            exclusive(make_write(0x1440, [9])),
        ]),
        "dsp_ocp": ("OCP", {"threads": 2}, [
            make_write(0x800, [5, 6], posted=True),
            exclusive(make_read(0xC0, thread=1)), exclusive(make_write(0xC0, [3], thread=1)),
            make_read(0x800, beats=2), make_write(0x2800, [8]),
        ]),
        "acc_msg": ("PROPRIETARY", {}, [
            make_write(0x1000, [11, 12]), make_write(0x1008, [13], posted=True),
            make_fence(), make_read(0x1000, beats=3),
        ]),
    }
    initiators = [
        InitiatorSpec(name, protocol, TrafficSpec(kind="scripted", intents=intents),
                      protocol_kwargs=kwargs)
        for name, (protocol, kwargs, intents) in scripted.items()
    ] + [
        InitiatorSpec("sync_axi", "AXI", TrafficSpec(kind="sync", style="excl",
                                                     iterations=2)),
    ] + [
        InitiatorSpec(f"io_{protocol.lower()}", protocol,
                      TrafficSpec(kind="poisson", pairs=ranges, count=12,
                                  seed=seed, tags=4, rate=0.3))
        for seed, protocol in enumerate(("PVCI", "BVCI", "AVCI"), start=7)
    ]
    targets = [
        TargetSpec("dram", size=0x2000, read_latency=6, write_latency=3),
        TargetSpec("sram", size=0x2000, read_latency=2, write_latency=1),
    ]
    return build_bus_soc(initiators, targets)


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
    "vc-torus-saturated": 1000,
    "adaptive-hotspot": 1500,
}

#: ``fingerprint_hash`` of each recipe's activity-kernel run at its
#: window (``None``: run to completion).  The runs were pinned before the
#: harness existed (the e2e windows before the router's ticks were split
#: into phases); the digests were re-taken when the router's three
#: always-zero fault counters left the fingerprint, and again when its
#: per-output busy-cycle dict (a sum of the output queues' push counts)
#: did, each time after the same runs hashed without the dropped fields
#: had matched the new ones exactly; and again when a memory image became
#: its store's two hex strings, after the runs hashed with the old model
#: and the new image had matched them exactly; and again when the
#: fingerprint became the declared counters (each class's ``COUNTERS``),
#: after the old model, its readers patched to emit that shape, had
#: matched them exactly.
PINNED = {
    ("dma_completion", 500): "53bfdb75ac69d1d1",
    ("gals_links", 500): "c3d752a41722b3e8",
    ("mixed_saturated", 500): "3da7d3d9423bfb17",
    ("mixed_sparse", 500): "483faaba470c7787",
    ("sweep_fork4", 500): "3da7d3d9423bfb17",
    ("torus_hotspot", 500): "f8cfa01ed688a6ca",
    ("collective_allreduce", None): "93ca7b82448d5496",
    ("dma_chain", None): "ec7c0f0f5592de78",
    ("stream_pipeline", None): "80171daf3892bced",
    ("mixed-protocols", 4000): "15f0aa9ec282b531",
    ("legacy-lock", 3000): "f14919de44354af3",
    ("gals-serialized-links", 5000): "fa0a0b90f053982f",
    ("vc-dateline-gals", 5000): "f44fc694841cd981",
    ("adaptive-escape-gals", 5000): "6659e0bfe5076a72",
    ("vc-torus-saturated", 1000): "8bf8213b3453132a",
    ("adaptive-hotspot", 1500): "af8f9068ff457922",
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
    """A fresh SoC of ``recipe`` on ``kernel``.
    ``fast_path=False`` runs every router tick through the reference
    phases (the flag is cleared after construction, so the router must
    read it in the tick)."""
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
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


# --------------------------------------------------------------------- #
# the drain oracle
# --------------------------------------------------------------------- #
def link_in_flight(link):
    """Flits inside a physical link, its feed queues not counted."""
    if isinstance(link, VcPhysicalLink):
        return (link._shifting is not None) + len(link._pipe) + len(link._crossing)
    return link.in_flight


def buffer_walk(plane):
    """The buffer walk ``Network.idle`` ran before a drained plane became
    a packet count, kept as the oracle: True when no flit or packet is
    anywhere in ``plane``.  It reads the internals of five component
    classes, which is why the plane no longer does."""
    queues = [q for router in plane.routers.values() for q in router.inputs.values()]
    queues += plane._inject_queues.values()
    queues += plane._eject_queues.values()
    for eport in plane.ejection_ports.values():
        queues += eport.flit_queues
    for link in plane.links:
        queues += getattr(link, "upstreams", None) or [link.upstream]
    for tx in plane.boundary_tx.values():
        queues += tx.feeds
    return not (
        any(queue.occupancy for queue in queues)
        or any(any(port._pending) for port in plane.injection_ports.values())
        or any(
            eport._rob_count or any(r._current is not None for r in eport.reassemblers)
            for eport in plane.ejection_ports.values()
        )
        or any(link_in_flight(link) for link in plane.links)
        or any(tx._shifting is not None or tx.outbox
               for tx in plane.boundary_tx.values())
        or any(rx._inbox or rx.credit_outbox for rx in plane.boundary_rx.values())
    )
