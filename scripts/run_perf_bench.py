#!/usr/bin/env python
"""Kernel perf bench: activity-driven kernel vs brute-force reference.

Runs two representative SoC workloads built from the shared bench
builders (``benchmarks/conftest.py``):

- ``idle_heavy``  — the Fig-1/Fig-2 mixed SoC whose traffic drains early
  in a long measurement window, leaving the fabric quiescent for most
  cycles.  This is where idle-skipping pays: after drain the active set
  is empty and cycles cost almost nothing.
- ``saturated``   — the same SoC under open-loop high-rate traffic that
  keeps the routers arbitrating every cycle.  This bounds the scheduler
  overhead and shows the router hot-path surgery.
- ``phys_gals``   — the mixed SoC rebuilt with the physical layer at its
  least transparent: narrow serialized router links (phit-level
  serialization + wire pipelining), three clock domains and CDC
  synchronizers on every NIU↔router link.  Tracks the overhead of the
  phys path (PhysicalLink components + domain-gated ticking) across PRs.
- ``vc_torus``    — a 4x4 torus with 2 virtual channels, DOR routing and
  the dateline VC policy under mixed-priority traffic (best-effort mix
  plus a high-priority video stream).  This workload cannot run at all
  on the single-VC fabric (wraparound wormhole deadlocks); it tracks
  the cost of the per-VC router path across PRs.
- ``adaptive_hotspot`` — a 4x4 torus under hotspot + background traffic
  (half the masters hammer one slow target, the rest stream to fast
  ones) with ``routing="adaptive"`` and the escape VC policy.  Besides
  the usual reference-vs-activity pair, the same traffic is replayed
  under deterministic DOR + dateline and recorded as ``dor_baseline``;
  ``flits_vs_dor`` is the scenario headline — congestion-scored route
  choice forwards more flits through the same window because background
  flows route around the hotspot's backpressure tree.
- ``degraded_hotspot`` — the adaptive hotspot fabric with one mid-run
  link failure next to the hot target's home router.  Besides the
  reference-vs-activity pair, the identical traffic is replayed with
  the fault removed and ``throughput_retention_vs_healthy`` (degraded
  completed txns over healthy) is the scenario headline — the
  resilience SLA, hard-gated at >= 0.5.
- ``parallel_torus`` — a sharded 16x16 torus (``SocBuilder(shards=N)``)
  run single-process and as N shard-worker processes through
  :func:`repro.sweep.parallel.run_sharded` (``--processes``, default 4).
  Records ``parallel_speedup`` on the critical-path basis (per-round
  slowest-worker CPU time + coordinator overhead — single-core runners
  time-slice the workers, so raw wall clock cannot show the
  parallelism; the unadjusted wall times are recorded alongside), the
  safe-window mean, boundary batch/flit/credit counts, and
  ``fingerprint_match`` — the sharded run must be byte-identical to the
  single-process run, and ``--check-against`` gates both that and the
  speedup (> 1.5x at 4+ processes) absolutely.
- ``dma_chain`` / ``stream_pipeline`` / ``collective_allreduce`` — the
  programmable-endpoint scenarios from the ``repro.workloads`` registry
  (descriptor-chained DMA engines, credit-throttled stream pipelines,
  a tree allreduce over a torus).  Resolved through the scenario
  registry (``repro.workloads.get(name).build(...)``) so the bench
  exercises the same entry point users script against; their entries
  additionally record condensed ``flow_stats`` percentiles (count/p50/
  p99/p999 per direction and priority class) — the latency SLA surface
  the workload layer exists to measure.

``--list-workloads`` prints every bench workload (with its window) and
every registry scenario (with its ``describe()`` line) and exits.

Each workload runs under ``Simulator(strict=True)`` (tick everything,
commit everything) and under the default activity-driven kernel, and the
results land in ``BENCH_kernel.json`` next to the repo root so the perf
trajectory is tracked across PRs.

Full runs also record ``speedup_vs_seed_v0`` on *every* workload entry:
workloads that postdate the recorded seed baseline get a proxy measured
under the seed execution model (the strict kernel) and stored in
``baselines.seed_v0`` with a provenance marker.  Quick runs
additionally run the ``sweep_fork`` benchmark: a 4-way design-space
sweep forked warm from one checkpointed prefix vs the same sweep run
cold, recording ``warm_start_speedup`` (gated > 1x) and
``results_match`` (forked metrics must equal cold metrics per
configuration).

``--check-against BASELINE.json`` turns the script into a perf gate: it
fails (exit 1) if any selected workload's activity-kernel
``cycles_per_s`` *or* ``flits_per_s`` drops more than
``--check-threshold`` (default 30%) below the baseline file's numbers
for that workload — this is what CI runs against the committed
``BENCH_kernel.json``.  Quick runs write to (and compare against) a
separate ``quick_workloads`` section, because short windows amortize
idle cycles very differently from the full ones.  ``--profile`` wraps
each activity run in cProfile and writes the top-25 cumulative hotspots
next to the JSON.  Every workload entry records the event-wheel
counters ``cycles_skipped`` (dead cycles the kernel jumped over) and
``wheel_events`` (timing-wheel re-activations scheduled).

Usage::

    PYTHONPATH=src python scripts/run_perf_bench.py [--out BENCH_kernel.json]
    PYTHONPATH=src python scripts/run_perf_bench.py --quick   # CI smoke
    PYTHONPATH=src python scripts/run_perf_bench.py --quick --workload vc_torus
    PYTHONPATH=src python scripts/run_perf_bench.py --list-workloads
    PYTHONPATH=src python scripts/run_perf_bench.py --quick \
        --check-against BENCH_kernel.json --out /tmp/fresh.json
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import io
import json
import platform
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.conftest import (  # noqa: E402
    build_noc,
    mixed_initiators,
    mixed_targets,
)
from repro.ip.masters import random_workload, video_workload  # noqa: E402
from repro.phys.link import LinkSpec  # noqa: E402
from repro.sim.fingerprint import reset_ids  # noqa: E402
from repro.soc import (  # noqa: E402
    FaultSchedule,
    InitiatorSpec,
    SocBuilder,
    TargetSpec,
)
from repro.sweep import Checkpoint, Override, fork  # noqa: E402
from repro.sweep.fork import run_cold  # noqa: E402
from repro.sweep.parallel import run_sharded  # noqa: E402
from repro.transport import topology as topo  # noqa: E402
from repro import workloads  # noqa: E402  (import registers scenarios)


def _reset_global_ids() -> None:
    """Fresh id streams per build so runs are comparable and repeatable.

    Uses the shared :func:`repro.sim.fingerprint.reset_ids` (SerialCounter
    streams, not bare ``itertools.count``) so the sweep_fork bench can
    snapshot/restore the counters like any other state.
    """
    reset_ids()


def build_idle_heavy(strict: bool, scale: int):
    """Traffic drains in the first few thousand cycles of the window."""
    _reset_global_ids()
    return build_noc(
        mixed_initiators(count=12 * scale, rate=0.25),
        mixed_targets(),
        strict_kernel=strict,
    )


def build_saturated(strict: bool, scale: int):
    """Open-loop load high enough to keep every router busy all window."""
    _reset_global_ids()
    return build_noc(
        mixed_initiators(count=100_000, rate=0.95),
        mixed_targets(),
        strict_kernel=strict,
    )


def build_phys_gals(strict: bool, scale: int):
    """Serialized links + GALS regions + CDC: the loaded physical path."""
    _reset_global_ids()
    initiators = mixed_initiators(count=24 * scale, rate=0.35)
    # Three clock regions spread round-robin over the initiators; the
    # targets sit in the io region so every NIU link crosses domains.
    regions = ("cpu", "io", "dsp")
    for index, spec in enumerate(initiators):
        spec.region = regions[index % len(regions)]
    targets = mixed_targets()
    for spec in targets:
        spec.region = "io"
    return build_noc(
        initiators,
        targets,
        strict_kernel=strict,
        links={
            "router": LinkSpec(phit_bits=48, pipeline_latency=1),
            "endpoint": LinkSpec(phit_bits=96),
        },
        clock_domains={"cpu": 2, "io": (3, 1), "dsp": 2, "fab": 1},
        fabric_region="fab",
    )


def build_vc_torus(strict: bool, scale: int):
    """4x4 torus, 2 VCs, dateline policy, mixed-priority traffic.

    The wraparound wormhole fabric this models deadlocks under a single
    VC; DOR routing plus the dateline policy make it safe with two.
    """
    _reset_global_ids()
    initiators = mixed_initiators(count=30 * scale, rate=0.35)
    initiators.append(
        InitiatorSpec(
            "vid_axi", "AXI",
            video_workload("vid_axi", base=0x1000, bytes_total=4096),
            protocol_kwargs={"id_count": 2},
        )
    )
    targets = mixed_targets()
    endpoints = len(initiators) + len(targets)
    return build_noc(
        initiators,
        targets,
        strict_kernel=strict,
        topology=topo.torus(4, 4, endpoints=endpoints),
        routing="dor",
        vcs=2,
        vc_policy="dateline",
    )


def build_adaptive_hotspot(
    strict: bool, scale: int, routing: str = "adaptive", faults=None
):
    """4x4 torus, hotspot + background traffic, adaptive vs DOR.

    Six masters hammer one slow target ("hot", long latencies and a
    shallow outstanding window, so its backpressure tree reaches deep
    into the fabric); six more stream to three fast background targets
    whose DOR paths share links with that tree.  Under adaptive routing
    the background flows route around the congested quadrant (and the
    hotspot flows spread over their minimal quadrants), so more flits
    move through the same cycle window.  ``routing="dor"`` replays the
    identical traffic on the deterministic fabric (2 VCs + dateline,
    DOR's canonical deadlock-free configuration) for the comparison.
    """
    _reset_global_ids()
    hot_range = [(0, 0x2000)]
    bg_ranges = [(0x2000, 0x2000), (0x4000, 0x2000), (0x6000, 0x2000)]
    initiators = []
    for index in range(12):
        hot = index % 2 == 0
        initiators.append(
            InitiatorSpec(
                f"ip{index}", "AXI",
                random_workload(
                    f"ip{index}",
                    hot_range if hot else bg_ranges,
                    count=100_000,
                    seed=20 + index,
                    rate=0.9 if hot else 0.7,
                    tags=4,
                    burst_beats=(4, 8),
                ),
                protocol_kwargs={"id_count": 4},
            )
        )
    targets = [
        TargetSpec("hot", size=0x2000, read_latency=14, write_latency=7,
                   max_outstanding=1),
        TargetSpec("bg0", size=0x2000, read_latency=2, write_latency=1),
        TargetSpec("bg1", size=0x2000, read_latency=2, write_latency=1),
        TargetSpec("bg2", size=0x2000, read_latency=2, write_latency=1),
    ]
    endpoints = len(initiators) + len(targets)
    kwargs = dict(
        topology=topo.torus(4, 4, endpoints=endpoints),
        strict_kernel=strict,
        faults=faults,
    )
    if routing == "adaptive":
        kwargs.update(routing="adaptive", vcs=3, vc_policy="escape")
    else:
        kwargs.update(routing="dor", vcs=2, vc_policy="dateline")
    return build_noc(initiators, targets, **kwargs)


def build_degraded_hotspot(strict: bool, scale: int, faulted: bool = True):
    """The adaptive hotspot fabric with one mid-run link failure.

    Identical traffic to ``adaptive_hotspot``, but at cycle 1000 the
    link between the hot target's home router (0, 3) (endpoint 12, the
    first target after the 12 initiators) and its neighbour (1, 3) goes
    down permanently: the fault epoch recomputes the adaptive tables on
    the surviving graph and every flow through that edge detours.  The
    scenario headline is ``throughput_retention_vs_healthy`` — completed
    transactions in the degraded window over the healthy replay's — the
    resilience SLA the ISSUE pins at >= 0.5.
    """
    faults = (
        FaultSchedule().link_down(1000, (0, 3), (1, 3)) if faulted else None
    )
    return build_adaptive_hotspot(strict, scale, faults=faults)


def _scenario_builder(name: str):
    """Bench builder for a registry scenario.

    Deliberately goes through :func:`repro.workloads.get` — the bench
    measures the same entry point users script against — with default
    parameters, so the recorded numbers stay comparable across PRs.
    """

    def build(strict: bool, scale: int):
        _reset_global_ids()
        return workloads.get(name).build(strict_kernel=strict)

    build.__name__ = f"build_{name}"
    build.__doc__ = workloads.describe(name)
    return build


#: Bench workloads resolved through the scenario registry; their entries
#: carry condensed flow_stats (the latency SLA surface).
SCENARIO_WORKLOADS = ("dma_chain", "stream_pipeline", "collective_allreduce")


def _condensed_flow_stats(soc) -> dict:
    """count/p50/p99/p999 per direction and priority class.

    The full :meth:`NocSoc.flow_stats` surface (per-pair histograms,
    mean/min/max/p95) stays available to scripts; the bench records just
    the tail-latency headline so BENCH_kernel.json tracks SLA drift
    without ballooning.
    """
    condensed = {}
    for direction, groups in soc.flow_stats().items():
        per_prio = {}
        for prio, summary in groups.get("priority", {}).items():
            per_prio[prio] = {
                "count": summary["count"],
                "p50": summary["p50"],
                "p99": summary["p99"],
                "p999": summary["p999"],
            }
        if per_prio:
            condensed[direction] = per_prio
    return condensed


def profile_workload(
    builder, cycles: int, scale: int, profile_path: Path
) -> None:
    """Run the activity kernel once more under cProfile.

    A *separate* run from the measured one: profiler overhead inflates
    wall time ~3x, which would poison the recorded numbers and trip the
    perf gate.  The hotspot report is what matters — it is written next
    to the JSON so future perf work starts from data.
    """
    soc = builder(False, scale)
    profiler = cProfile.Profile()
    profiler.enable()
    soc.run(cycles)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(25)
    profile_path.write_text(stream.getvalue())
    print(f"   wrote profile {profile_path}")


def run_workload(
    builder, strict: bool, cycles: int, scale: int, repeats: int = 1,
    flow_stats: bool = False,
) -> dict:
    """Run one (workload, kernel) pair; with ``repeats > 1`` the run is
    repeated and the best wall time kept — wall-clock throughput on a
    shared machine is a *minimum-noise* measurement (simulated behaviour
    is identical across repeats; only the timing varies).
    ``flow_stats=True`` adds the condensed per-priority latency
    percentiles (identical across repeats, taken from the kept run)."""
    best = None
    for _ in range(max(1, repeats)):
        soc = builder(strict, scale)
        t0 = time.perf_counter()
        soc.run(cycles)
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, soc)
    wall, soc = best
    flits = soc.fabric.total_flits_forwarded()
    extra = {"flow_stats": _condensed_flow_stats(soc)} if flow_stats else {}
    return {
        **extra,
        "kernel": "reference" if strict else "activity",
        "cycles": cycles,
        "wall_s": round(wall, 4),
        "cycles_per_s": round(cycles / wall, 1),
        "flits_forwarded": flits,
        "flits_per_s": round(flits / wall, 1),
        "phits_carried": soc.fabric.total_phits_carried(),
        "completed_txns": soc.total_completed(),
        # Event-wheel counters (0 on the strict kernel, which never
        # skips): how much of the window was jumped over, and how many
        # timing-wheel re-activations were scheduled along the way.
        "cycles_skipped": soc.sim.cycles_skipped,
        "wheel_events": soc.sim.wheel_events,
        "final_active_components": soc.sim.active_count,
        "total_components": len(soc.sim.components),
        # Fault/degraded-mode counters (0 on healthy fabrics).
        "faults_hit": sum(
            r.faults_hit
            for plane in soc.fabric._planes
            for r in plane.routers.values()
        ),
        "packets_rerouted": sum(
            r.packets_rerouted
            for plane in soc.fabric._planes
            for r in plane.routers.values()
        ),
    }


WORKLOADS = {
    "idle_heavy": build_idle_heavy,
    "saturated": build_saturated,
    "phys_gals": build_phys_gals,
    "vc_torus": build_vc_torus,
    "adaptive_hotspot": build_adaptive_hotspot,
    "degraded_hotspot": build_degraded_hotspot,
}
for _name in SCENARIO_WORKLOADS:
    WORKLOADS[_name] = _scenario_builder(_name)

def measure_seed_proxy(name, builder, cycles, scale) -> dict:
    """A seed-v0 stand-in for workloads the seed tree could not run.

    ``baselines.seed_v0`` was measured once on the seed kernel; later
    workloads (VCs, adaptive routing, faults) have no such number, so
    ``speedup_vs_seed_v0`` silently disappeared from their entries.
    The seed's execution model — tick every component every cycle —
    still exists as ``Simulator(strict=True)``, so we measure that once
    and record it with a provenance marker; the uniform speedup loop
    then treats it exactly like a real seed number.
    """
    print(f"   measuring seed_v0 proxy for {name} (strict kernel)")
    numbers = run_workload(builder, True, cycles, scale)
    return {
        "cycles": cycles,
        "wall_s": numbers["wall_s"],
        "flits": numbers["flits_forwarded"],
        "flits_per_s": numbers["flits_per_s"],
        "proxy": "strict kernel (the seed-v0 execution model), "
                 "measured retroactively — this workload did not exist "
                 "at seed v0",
    }


#: Targets of the parallel_torus bench (one address stripe each).
PARALLEL_TORUS_TARGETS = 16


def build_parallel_torus(shards: int, width: int = 16):
    """16x16 torus under saturating open-loop load, built sharded.

    The workload the sharded fabric exists for: a fabric too large for
    one process to step quickly, with traffic spread evenly (endpoints
    land 4 per column, targets striped across the address map) so every
    column-band shard carries comparable load.  Router links get a
    3-stage wire pipeline — physically a long-haul link, and exactly
    the lookahead the conservative protocol turns into its safe window
    (W = 4 cycles per round).
    """
    _reset_global_ids()
    ranges = [(i * 0x1000, 0x1000) for i in range(PARALLEL_TORUS_TARGETS)]
    n_initiators = 3 * width * width // 16
    endpoints = n_initiators + PARALLEL_TORUS_TARGETS
    builder = SocBuilder(
        shards=shards,
        topology=topo.torus(width, width, endpoints=endpoints),
        routing="dor",
        vcs=2,
        vc_policy="dateline",
        links={"router": LinkSpec(phit_bits=64, pipeline_latency=3)},
    )
    for index in range(n_initiators):
        builder.add_initiator(
            InitiatorSpec(
                f"ip{index}", "AXI",
                random_workload(
                    f"ip{index}", ranges, count=100_000, seed=30 + index,
                    rate=0.5, tags=4, burst_beats=(4, 8),
                ),
                protocol_kwargs={"id_count": 4},
            )
        )
    for index in range(PARALLEL_TORUS_TARGETS):
        builder.add_target(
            TargetSpec(f"mem{index}", size=0x1000, read_latency=3,
                       write_latency=2)
        )
    return builder.build()


def run_parallel_torus_bench(processes: int, cycles: int) -> dict:
    """Sharded 16x16 torus: one process vs ``processes`` shard workers.

    Runs the identical sharded build twice through
    :func:`repro.sweep.parallel.run_sharded` — single-process, then one
    worker per shard — and verifies the merged fingerprint is
    byte-identical (a mismatch is a correctness failure, reported as
    ``fingerprint_match`` and gated).  ``parallel_speedup`` is on the
    critical-path basis (per-round slowest worker CPU time plus
    coordinator overhead — what an unshared machine would see; workers
    time-slicing a shared core would otherwise be charged for their
    siblings), with the honest wall-clock numbers recorded alongside.
    """
    builder = functools.partial(build_parallel_torus, processes)
    single = run_sharded(builder, cycles=cycles, processes=0)
    parallel = run_sharded(builder, cycles=cycles, processes=processes)
    match = json.dumps(single["fingerprint"], sort_keys=True) == json.dumps(
        parallel["fingerprint"], sort_keys=True
    )
    single_cp = single["timing"]["critical_path_s"]
    parallel_cp = parallel["timing"]["critical_path_s"]
    speedup = single_cp / parallel_cp if parallel_cp else 0.0
    flits = parallel["metrics"]["flits_forwarded"]
    print(
        f"   single {single_cp:.3f}s vs {processes}-process critical path "
        f"{parallel_cp:.3f}s -> parallel_speedup {speedup:.2f}x "
        f"({flits} flits, {parallel['timing']['rounds']} rounds, "
        f"W_mean {parallel['timing']['safe_window_mean']:.1f}, "
        f"fingerprint_match={match})"
    )
    return {
        "processes": processes,
        "cycles": cycles,
        "fingerprint_match": match,
        "parallel_speedup": round(speedup, 2),
        "timing_basis": (
            "critical path: per-round max worker CPU time + coordinator "
            "overhead (single-core hosts time-slice workers, so wall "
            "clock cannot show the parallelism; wall_s is recorded "
            "unadjusted alongside)"
        ),
        "single_process": {
            "wall_s": round(single["timing"]["wall_s"], 4),
            "critical_path_s": round(single_cp, 4),
            "flits_forwarded": single["metrics"]["flits_forwarded"],
            "flits_per_s": round(
                single["metrics"]["flits_forwarded"] / single_cp, 1
            ) if single_cp else 0.0,
            "completed_txns": single["metrics"]["completed"],
        },
        "parallel": {
            "wall_s": round(parallel["timing"]["wall_s"], 4),
            "critical_path_s": round(parallel_cp, 4),
            "busy_total_s": round(parallel["timing"]["busy_total_s"], 4),
            "coordinator_s": round(parallel["timing"]["coordinator_s"], 4),
            "rounds": parallel["timing"]["rounds"],
            "safe_window_mean": round(
                parallel["timing"]["safe_window_mean"], 2
            ),
            "boundary_batches": parallel["timing"]["boundary_batches"],
            "boundary_flits": parallel["timing"]["boundary_flits"],
            "boundary_credits": parallel["timing"]["boundary_credits"],
            "flits_forwarded": flits,
            "flits_per_s": round(flits / parallel_cp, 1)
            if parallel_cp else 0.0,
            "completed_txns": parallel["metrics"]["completed"],
        },
        # The seed tree cannot shard at all: the single_process numbers
        # above are this entry's in-file baseline, so no seed_v0 proxy.
    }


#: Offered loads swept by the sweep_fork bench (gpu_axi traffic rate).
SWEEP_RATES = (0.1, 0.3, 0.6, 0.9)


def _build_sweep_soc():
    """Congruent builder for the sweep_fork bench.

    Open-loop traffic (huge count) so every forked continuation still has
    load to differentiate the rate overrides; the fork machinery reseeds
    the global id counters itself before each build."""
    return build_noc(
        mixed_initiators(count=100_000, rate=0.3),
        mixed_targets(),
        strict_kernel=False,
    )


def _set_sweep_rate(rate, soc):
    soc.masters["gpu_axi"].traffic.rate = rate


def run_sweep_fork_bench(
    prefix_cycles: int = 4_000, run_cycles: int = 1_000
) -> dict:
    """Warm-start design-space sweep vs the same sweep run cold.

    Warm path: run the common prefix once, :meth:`Checkpoint.capture` it,
    then :func:`fork` one continuation per rate override (serial, so the
    wall-clock comparison is apples-to-apples with the serial cold loop).
    Cold path: one full prefix + continuation per override, applying the
    identical override at the identical cycle.  ``warm_start_speedup``
    (cold wall over warm wall) is the headline the perf gate requires
    > 1x on this 4-way sweep, and ``results_match`` pins that forking is
    a pure wall-clock optimisation — every forked configuration's metrics
    equal its cold run's.
    """
    overrides = [
        Override(name=f"rate={rate}",
                 apply=functools.partial(_set_sweep_rate, rate))
        for rate in SWEEP_RATES
    ]
    t0 = time.perf_counter()
    _reset_global_ids()
    soc = _build_sweep_soc()
    soc.run(prefix_cycles)
    checkpoint = Checkpoint.capture(soc)
    report = fork(
        checkpoint, overrides, builder=_build_sweep_soc,
        cycles=run_cycles, processes=0,
    )
    warm_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    cold = {
        override.name: run_cold(
            _build_sweep_soc, override, prefix_cycles, run_cycles
        )
        for override in overrides
    }
    cold_s = time.perf_counter() - t0

    results_match = all(
        report["configs"][name]["metrics"] == metrics
        for name, metrics in cold.items()
    )
    speedup = cold_s / warm_s if warm_s else 0.0
    print(
        f"   sweep_fork: warm {warm_s:.3f}s vs cold {cold_s:.3f}s over "
        f"{len(overrides)} configs -> warm_start_speedup {speedup:.2f}x "
        f"(results_match={results_match})"
    )
    return {
        "prefix_cycles": prefix_cycles,
        "run_cycles": run_cycles,
        "sweep_width": len(overrides),
        "warm_s": round(warm_s, 4),
        "cold_s": round(cold_s, 4),
        "warm_start_speedup": round(speedup, 2),
        "results_match": results_match,
        "configs": {
            name: {
                "completed": entry["metrics"]["completed"],
                "flits_forwarded": entry["metrics"]["flits_forwarded"],
            }
            for name, entry in report["configs"].items()
        },
    }


def check_against(
    baseline_path: Path, results: dict, threshold: float, section: str,
    remeasure=None,
) -> int:
    """Perf-regression gate: compare activity-kernel throughput.

    Both views are gated with the same threshold: ``cycles_per_s`` (how
    fast simulated time advances — the time-skipping headline) and
    ``flits_per_s`` (how fast the fabric's actual work gets done — the
    router hot-path headline; a change that speeds up quiet cycles but
    slows down flit forwarding fails here).  Quick and full windows
    amortize idle cycles very differently, so a run only ever compares
    against the *same-window section* of the baseline (``workloads`` for
    full runs, ``quick_workloads`` for ``--quick`` runs) and skips
    entries whose measurement window still differs.  Workloads missing
    from the baseline are skipped too (new workloads cannot regress
    against numbers that do not exist yet).

    Wall-clock on shared runners is bursty: a neighbour stealing the
    CPU for a few seconds can sink whichever workload happened to be
    measuring, and which one that is changes run to run.  So before a
    drop counts, the workload is re-measured once via ``remeasure`` and
    the better number wins — a scheduling burst will not reproduce on
    the retry, a real regression will.  Returns the number of
    regressions past ``threshold``.
    """
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"!! cannot read perf baseline {baseline_path}: {exc}")
        return 1
    regressions = 0
    for name, entry in sorted(results[section].items()):
        base_entry = baseline.get(section, {}).get(name)
        if name == "sweep_fork":
            # Absolute gates, not baseline-relative: forking a warmed
            # prefix must beat paying the prefix per configuration, and
            # must change nothing observable (fork == cold, per config).
            speedup = entry.get("warm_start_speedup", 0.0)
            match = entry.get("results_match", False)
            verdict = "ok"
            if speedup <= 1.0:
                verdict = "REGRESSION (warm start did not beat cold runs)"
                regressions += 1
            elif not match:
                verdict = "REGRESSION (forked metrics != cold metrics)"
                regressions += 1
            print(
                f"   perf-gate sweep_fork: warm_start_speedup "
                f"{speedup:.2f}x, results_match={match} {verdict}"
            )
            continue
        if name == "parallel_torus":
            # Absolute gates, not baseline-relative: the sharded run must
            # be byte-identical to the single-process run, and splitting
            # the fabric must actually pay — > 1.5x on the critical-path
            # basis at 4+ workers (the ISSUE's bar), > 1x below that
            # (CI's 2-process smoke can't reach the 4-process number).
            match = entry.get("fingerprint_match", False)
            speedup = entry.get("parallel_speedup", 0.0)
            bar = 1.5 if entry.get("processes", 0) >= 4 else 1.0
            verdict = "ok"
            if not match:
                verdict = "REGRESSION (sharded fingerprint diverged)"
                regressions += 1
            elif speedup <= bar:
                verdict = (
                    f"REGRESSION (parallel_speedup <= {bar}x at "
                    f"{entry.get('processes')} processes)"
                )
                regressions += 1
            print(
                f"   perf-gate parallel_torus: parallel_speedup "
                f"{speedup:.2f}x at {entry.get('processes')} processes "
                f"(bar {bar}x), fingerprint_match={match} {verdict}"
            )
            continue
        if not base_entry or "activity" not in base_entry:
            continue  # no (or malformed) baseline for this workload
        if base_entry["activity"]["cycles"] != entry["activity"]["cycles"]:
            print(
                f"   perf-gate {name}: window changed "
                f"({base_entry['activity']['cycles']} -> "
                f"{entry['activity']['cycles']} cycles), skipping"
            )
            continue
        metrics = (("cycles_per_s", "cyc/s"), ("flits_per_s", "flits/s"))
        current = {m: entry["activity"].get(m, 0) for m, _ in metrics}

        def _dropped():
            return [
                m
                for m, _ in metrics
                if base_entry["activity"].get(m)
                and current[m] / base_entry["activity"][m] < 1.0 - threshold
            ]

        note = ""
        if _dropped() and remeasure is not None:
            print(f"   perf-gate {name}: slow, re-measuring once")
            fresh = remeasure(name)
            if fresh and fresh.get("cycles") == entry["activity"]["cycles"]:
                for m, _ in metrics:
                    current[m] = max(current[m], fresh.get(m, 0))
                note = ", best of retry"
        for metric, unit in metrics:
            base = base_entry["activity"].get(metric, 0)
            if not base:
                continue  # no flits forwarded, or an old-format baseline
            ratio = current[metric] / base
            verdict = "ok"
            if ratio < 1.0 - threshold:
                verdict = f"REGRESSION (>{threshold:.0%} drop)"
                regressions += 1
            print(
                f"   perf-gate {name}: {current[metric]:.0f} vs baseline "
                f"{base:.0f} {unit} ({ratio:.2f}x{note}) {verdict}"
            )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_kernel.json"),
        help="output JSON path",
    )
    parser.add_argument(
        "--cycles", type=int, default=60_000,
        help="measurement window in cycles (idle_heavy)",
    )
    parser.add_argument(
        "--saturated-cycles", type=int, default=6_000,
        help="measurement window in cycles (saturated)",
    )
    parser.add_argument(
        "--phys-cycles", type=int, default=30_000,
        help="measurement window in cycles (phys_gals)",
    )
    parser.add_argument(
        "--vc-cycles", type=int, default=30_000,
        help="measurement window in cycles (vc_torus)",
    )
    parser.add_argument(
        "--hotspot-cycles", type=int, default=20_000,
        help="measurement window in cycles (adaptive_hotspot)",
    )
    parser.add_argument(
        "--scenario-cycles", type=int, default=10_000,
        help="measurement window in cycles (registry scenarios: "
             "dma_chain, stream_pipeline, collective_allreduce)",
    )
    parser.add_argument(
        "--parallel-cycles", type=int, default=2_000,
        help="measurement window in cycles (parallel_torus)",
    )
    parser.add_argument(
        "--processes", type=int, default=4,
        help="shard worker count for the parallel_torus bench (the build "
             "is sharded to match; CI's quick smoke passes 2)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small windows for CI smoke runs",
    )
    parser.add_argument(
        "--list-workloads", action="store_true",
        help="print every bench workload and registry scenario, then exit",
    )
    parser.add_argument(
        "--check-against", metavar="JSON", default=None,
        help="perf gate: fail if any selected workload's activity "
             "cycles_per_s drops more than --check-threshold below this "
             "baseline JSON (CI passes the committed BENCH_kernel.json)",
    )
    parser.add_argument(
        "--check-threshold", type=float, default=0.30,
        help="allowed fractional cycles_per_s drop before the gate fails "
             "(default 0.30)",
    )
    parser.add_argument(
        "--workload", action="append",
        choices=sorted([*WORKLOADS, "parallel_torus"]),
        metavar="NAME",
        help="run only this workload (repeatable; default: all); existing "
             "results for unselected workloads are preserved in the JSON",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="repeat each measured run this many times and keep the best "
             "wall time (noise floor on shared machines; simulated "
             "behaviour is identical across repeats)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="wrap each selected workload's activity run in cProfile and "
             "write the top-25 cumulative hotspots to "
             "<out>.<workload>.profile.txt next to the JSON, so future "
             "perf PRs start from data",
    )
    args = parser.parse_args(argv)

    windows = {
        "idle_heavy": 6_000 if args.quick else args.cycles,
        "saturated": 1_500 if args.quick else args.saturated_cycles,
        "phys_gals": 3_000 if args.quick else args.phys_cycles,
        "vc_torus": 3_000 if args.quick else args.vc_cycles,
        "adaptive_hotspot": 3_000 if args.quick else args.hotspot_cycles,
        "degraded_hotspot": 3_000 if args.quick else args.hotspot_cycles,
    }
    for name in SCENARIO_WORKLOADS:
        windows[name] = 2_500 if args.quick else args.scenario_cycles

    if args.list_workloads:
        print("bench workloads:")
        for name in sorted(WORKLOADS):
            doc = (WORKLOADS[name].__doc__ or "").strip().splitlines()[0]
            print(f"  {name:22s} {doc}")
        print("registry scenarios (repro.workloads.get(name).build(...)):")
        for name in workloads.available():
            print(f"  {name:22s} {workloads.describe(name)}")
        return 0
    scale = 1
    selected = {
        name: builder
        for name, builder in WORKLOADS.items()
        if not args.workload or name in args.workload
    }

    out = Path(args.out)
    # This run writes into the section matching its windows — "workloads"
    # for full runs, "quick_workloads" for --quick — so quick CI smoke
    # numbers never overwrite (or get compared against) full-window ones.
    section = "quick_workloads" if args.quick else "workloads"
    other = "workloads" if args.quick else "quick_workloads"
    # Baselines (e.g. the seed kernel, measured once per machine) are
    # preserved across reruns so the JSON shows the cross-PR trajectory;
    # with --workload filters, untouched workloads keep their previous
    # numbers too, and the other window section is carried over verbatim.
    baselines = {}
    previous_section = {}
    previous_other = {}
    if out.exists():
        try:
            previous = json.loads(out.read_text())
            baselines = previous.get("baselines", {})
            previous_section = previous.get(section, {})
            previous_other = previous.get(other, {})
        except (json.JSONDecodeError, OSError):
            pass

    results = {
        "meta": {
            "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "quick": args.quick,
            "repeats": args.repeats,
        },
        "baselines": baselines,
        other: previous_other,
        section: {
            name: numbers
            for name, numbers in previous_section.items()
            if name not in selected
        },
    }
    for name, builder in selected.items():
        cycles = windows[name]
        is_scenario = name in SCENARIO_WORKLOADS
        print(f"== {name} ({cycles} cycles) ==")
        reference = run_workload(
            builder, True, cycles, scale, repeats=args.repeats
        )
        activity = run_workload(
            builder, False, cycles, scale, repeats=args.repeats,
            flow_stats=is_scenario,
        )
        if args.profile:
            profile_workload(
                builder, cycles, scale,
                out.with_name(f"{out.stem}.{name}.profile.txt"),
            )
        speedup = reference["wall_s"] / activity["wall_s"]
        # The two kernels must agree on what the simulation *did*.
        if reference["flits_forwarded"] != activity["flits_forwarded"] or (
            reference["completed_txns"] != activity["completed_txns"]
        ):
            print(f"!! kernel mismatch on {name}: {reference} vs {activity}")
            return 1
        entry = {
            "reference": reference,
            "activity": activity,
            "speedup": round(speedup, 2),
        }
        print(
            f"   reference {reference['wall_s']:.3f}s  "
            f"activity {activity['wall_s']:.3f}s  speedup {speedup:.2f}x  "
            f"({activity['cycles_per_s']:.0f} cyc/s, "
            f"{activity['flits_forwarded']} flits)"
        )
        if name == "adaptive_hotspot":
            # Replay the identical traffic under deterministic DOR: the
            # scenario headline is fabric throughput, flits through the
            # same window (and flits_per_s for the wall-clock view).
            dor = run_workload(
                lambda strict, sc: build_adaptive_hotspot(
                    strict, sc, routing="dor"
                ),
                False, cycles, scale, repeats=args.repeats,
            )
            entry["dor_baseline"] = dor
            entry["flits_vs_dor"] = round(
                activity["flits_forwarded"] / dor["flits_forwarded"], 3
            )
            print(
                f"   dor replay {dor['wall_s']:.3f}s "
                f"({dor['flits_forwarded']} flits) -> adaptive carries "
                f"{entry['flits_vs_dor']:.2f}x the flits"
            )
            if activity["flits_forwarded"] <= dor["flits_forwarded"]:
                print("!! adaptive_hotspot: adaptive did not beat DOR")
                return 1
        if name == "degraded_hotspot":
            # Replay the identical traffic with the fault schedule
            # removed: the scenario headline is the resilience SLA —
            # completed transactions in the degraded window over the
            # healthy replay's, which the ISSUE pins at >= 0.5.
            healthy = run_workload(
                lambda strict, sc: build_degraded_hotspot(
                    strict, sc, faulted=False
                ),
                False, cycles, scale, repeats=args.repeats,
            )
            entry["healthy_replay"] = healthy
            retention = (
                activity["completed_txns"] / healthy["completed_txns"]
                if healthy["completed_txns"]
                else 0.0
            )
            entry["throughput_retention_vs_healthy"] = round(retention, 3)
            print(
                f"   healthy replay {healthy['completed_txns']} txns vs "
                f"degraded {activity['completed_txns']} -> retention "
                f"{retention:.2f} ({activity['packets_rerouted']} rerouted, "
                f"{activity['faults_hit']} fault-degraded grants)"
            )
            if retention < 0.5:
                print("!! degraded_hotspot: retention below the 0.5 SLA")
                return 1
            if activity["faults_hit"] == 0:
                print("!! degraded_hotspot: the fault never degraded a grant")
                return 1
        results[section][name] = entry

    if args.quick and not args.workload:
        print("== sweep_fork (warm-start sweep vs cold sweep) ==")
        results[section]["sweep_fork"] = run_sweep_fork_bench()

    if not args.workload or "parallel_torus" in args.workload:
        parallel_cycles = 1_000 if args.quick else args.parallel_cycles
        print(
            f"== parallel_torus (sharded fabric, {args.processes} "
            f"processes, {parallel_cycles} cycles) =="
        )
        entry = run_parallel_torus_bench(args.processes, parallel_cycles)
        results[section]["parallel_torus"] = entry
        if not entry["fingerprint_match"]:
            print("!! parallel_torus: sharded fingerprint diverged from "
                  "the single-process run")
            return 1

    # Every full-window workload gets a speedup_vs_seed_v0: workloads
    # missing from the recorded seed baseline (they postdate it) get a
    # proxy measured under the seed execution model, marked as such.
    if not args.quick:
        seed_workloads = baselines.setdefault("seed_v0", {}).setdefault(
            "workloads", {}
        )
        for name, builder in selected.items():
            if name not in seed_workloads:
                seed_workloads[name] = measure_seed_proxy(
                    name, builder, windows[name], scale
                )

    for name, base in baselines.items():
        for workload, numbers in base.get("workloads", {}).items():
            entry = results[section].get(workload)
            if entry and numbers.get("cycles") == entry["activity"]["cycles"]:
                entry[f"speedup_vs_{name}"] = round(
                    numbers["wall_s"] / entry["activity"]["wall_s"], 2
                )

    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    if args.check_against:

        def remeasure(name):
            # One fresh activity-kernel measurement of a workload whose
            # first sample fell past the gate threshold, so a transient
            # scheduling burst on the runner cannot fail the gate alone.
            if name not in WORKLOADS or name not in windows:
                return None
            return run_workload(
                WORKLOADS[name], False, windows[name], scale,
                repeats=args.repeats,
            )

        regressions = check_against(
            Path(args.check_against), results, args.check_threshold,
            section, remeasure=remeasure,
        )
        if regressions:
            print(f"!! perf gate failed: {regressions} regression(s)")
            return 1
        print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
