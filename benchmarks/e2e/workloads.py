"""The seven benchmark workloads: how each SoC is built, run and observed.

Everything that touches the simulator lives here and goes through its
public facades only (``repro.soc``, ``repro.ip.traffic.TrafficSpec``,
``repro.phys.link.LinkSpec``, ``repro.transport.topology``,
``repro.workloads``, ``repro.sweep``).  Every SoC is the default
configuration — activity kernel, default router core — except the check
run's ``strict_kernel=True`` reference.  The frozen windows come from
``spec.json``; ``--seed`` reaches the simulator only as
``TrafficSpec(seed=...)`` values (seed + a fixed per-master offset) and,
for the DMA programs, as the descriptor parameters drawn from it.

One run of a workload returns an *observation*: a flat dict with the host
timings (``wall_s``/``cpu_s``/``build_s``), the simulated outcome
(``cycles``/``flits``/``completed``/``p50``/``p99``), a ``fingerprint``
hash of :func:`repro.sim.fingerprint.fingerprint_soc`, the per-layer
``counters`` and a list of ``failures`` (empty when the run is correct).
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import random
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from repro.ip.traffic import TrafficSpec
from repro.phys.link import LinkSpec
from repro.sim.fingerprint import fingerprint_soc, reset_ids
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.sweep import Checkpoint, Override, fork, run_sharded
from repro.sweep.fork import run_cold
from repro.transport import topology
from repro.workloads import DmaDescriptor

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())

#: Sources never run dry inside any window (open loop).
_ENDLESS = 10**9


# --------------------------------------------------------------------- #
# observation
# --------------------------------------------------------------------- #
def fingerprint_hash(fingerprint) -> str:
    """Short stable hash of a ``fingerprint_soc``-shaped dict."""
    text = json.dumps(fingerprint, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def percentile(samples, p: float) -> float:
    """``p``-th percentile of integer-valued ``samples``, interpolated
    inside the integer bin (value ``v`` covers ``[v - 0.5, v + 0.5)``).

    Latencies are whole cycles, so the nearest-rank percentile moves in
    one-cycle steps (5% of a 20-cycle median); the grouped-data form is
    the same statistic without the quantisation, which is what lets a
    2-3% bound tell a model change from seed-to-seed sampling.
    """
    if not samples:
        return 0.0
    target = p / 100.0 * len(samples)
    seen = 0
    for value, count in sorted(Counter(samples).items()):
        if seen + count >= target:
            return value - 0.5 + (target - seen) / count
        seen += count
    return float(max(samples))


def observe(soc) -> dict:
    """The simulated outcome and per-layer counters of ``soc`` right now."""
    sim = soc.sim
    latencies = []
    for name in soc.masters:
        latencies.extend(sim.stats.latency(f"{name}.txn").histogram.samples)
    routers = [r for p in soc.fabric._planes for r in p.routers.values()]
    eports = [e for p in soc.fabric._planes for e in p.ejection_ports.values()]
    stats = sim.stats
    flits = soc.fabric.total_flits_forwarded()
    return {
        "cycles": sim.cycle,
        "flits": flits,
        "completed": soc.total_completed(),
        "p50": percentile(latencies, 50),
        "p99": percentile(latencies, 99),
        "fingerprint": fingerprint_hash(fingerprint_soc(soc)),
        "ordering_violations": soc.ordering_violations(),
        "counters": {
            "sim.kernel.steps": sim.cycle - sim.cycles_skipped,
            "sim.kernel.cycles_skipped": sim.cycles_skipped,
            "sim.kernel.wheel_events": sim.wheel_events,
            "sim.stats.samples_held": sum(
                h.count for h in stats._histograms.values()
            ) + sum(s.histogram.count for s in stats._latencies.values()),
            "transport.router.flits_forwarded": flits,
            "transport.router.packets_adaptive": sum(
                r.packets_adaptive for r in routers
            ),
            "transport.router.packets_escape": sum(
                r.packets_escape for r in routers
            ),
            "transport.ports.packets_resequenced": sum(
                e.packets_resequenced for e in eports
            ),
            "phys.phits_carried": soc.fabric.total_phits_carried(),
            "niu.requests_sent": sum(
                n.requests_sent for n in soc.initiator_nius.values()
            ),
            "protocols.txns_completed": soc.total_completed(),
        },
    }


def _failures(observation) -> list:
    violations = observation["ordering_violations"]
    return [f"{violations} ordering violations"] if violations else []


# --------------------------------------------------------------------- #
# the mixed SoC (paper Fig 2) shared by four workloads
# --------------------------------------------------------------------- #
_MIXED_RANGES = [(0, 0x4000), (0x4000, 0x4000)]


def _mixed_builder(seed: int, rate: float, strict: bool, **knobs) -> SocBuilder:
    """AHB, AXI, OCP, BVCI and proprietary masters through their NIUs
    onto the default mesh, two memories; every source open-loop at
    ``rate``."""

    def source(offset, **extra):
        return TrafficSpec(
            kind="poisson", seed=seed + offset, count=_ENDLESS, rate=rate,
            pairs=_MIXED_RANGES, **extra,
        )

    builder = SocBuilder(strict_kernel=True if strict else None, **knobs)
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
    builder.add_initiator(InitiatorSpec(
        "acc_msg", "PROPRIETARY", source(5, burst_beats=(8,)),
    ))
    builder.add_target(
        TargetSpec("dram", size=0x4000, read_latency=6, write_latency=3)
    )
    builder.add_target(
        TargetSpec("sram", size=0x4000, read_latency=2, write_latency=1)
    )
    return builder


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #
class Workload:
    """One SoC run for a fixed window of simulated cycles.

    Subclasses give :meth:`builder`; the run/check shapes below fit every
    workload that is a single ``soc.run(cycles)`` and are overridden by
    the three that are not (completion, sweep, sharded).
    """

    name = ""
    #: False when wall > CPU is expected (worker processes), so the
    #: noise guard does not apply.
    single_process = True
    #: False when the stepping happens where the timing shims cannot
    #: reach (worker processes).
    traceable = True

    def __init__(self, window=None) -> None:
        self.window = dict(SPEC["windows"][self.name])
        self.window.update(window or {})

    def builder(self, seed: int, strict: bool = False) -> SocBuilder:
        raise NotImplementedError

    def setup(self, seed: int) -> float:
        """Seconds for one builder construction + ``.build()``."""
        reset_ids()
        started = time.perf_counter()
        self.builder(seed).build()
        return time.perf_counter() - started

    def advance(self, soc, cycles=None) -> None:
        soc.run(cycles or self.window["cycles"])

    def run(self, seed: int, *, strict=False, cycles=None, tracer=None) -> dict:
        reset_ids()
        gc.collect()
        started = time.perf_counter()
        soc = self.builder(seed, strict).build()
        build_s = time.perf_counter() - started
        if tracer is not None:
            tracer.instrument(soc)
        gc.collect()
        with tracer.installed() if tracer is not None else nullcontext():
            started, cpu_started = time.perf_counter(), time.process_time()
            self.advance(soc, cycles)
            wall_s = time.perf_counter() - started
            cpu_s = time.process_time() - cpu_started
        observation = observe(soc)
        observation.update(
            wall_s=wall_s, cpu_s=cpu_s, build_s=build_s,
            failures=_failures(observation) + self.verify(soc),
        )
        return observation

    def verify(self, soc) -> list:
        """Workload-specific failures of a finished run."""
        return []

    def check(self, seed: int, reference: dict):
        """The check run: strict kernel ≡ activity kernel on the check
        window.  ``reference`` is an untraced full-window run, reused as
        the activity side when the check window is the full window.
        Returns ``(failures, per-layer metrics from the check run)``."""
        cycles = self.window.get("check_cycles")
        activity = reference if cycles is None else self.run(seed, cycles=cycles)
        strict = self.run(seed, strict=True, cycles=cycles)
        failures = list(strict["failures"])
        if strict["fingerprint"] != activity["fingerprint"]:
            failures.append(
                f"strict fingerprint {strict['fingerprint']} != activity "
                f"{activity['fingerprint']}"
            )
        strict_speed = strict["cycles"] / strict["wall_s"]
        return failures, {
            "sim.kernel.strict_cycles_per_s": strict_speed,
            "sim.kernel.activity_vs_strict":
                activity["cycles"] / activity["wall_s"] / strict_speed,
        }


class MixedSaturated(Workload):
    name = "mixed_saturated"

    def builder(self, seed, strict=False):
        return _mixed_builder(seed, self.window["rate"], strict)


class MixedSparse(MixedSaturated):
    name = "mixed_sparse"


class TorusHotspot(Workload):
    name = "torus_hotspot"

    def builder(self, seed, strict=False):
        hot = [(0, 0x2000)]
        background = [(0x2000, 0x2000), (0x4000, 0x2000), (0x6000, 0x2000)]
        builder = SocBuilder(
            strict_kernel=True if strict else None,
            topology=topology.torus(4, 4, endpoints=16),
            routing="adaptive", vcs=3, vc_policy="escape",
        )
        for index in range(12):
            is_hot = index % 2 == 0
            builder.add_initiator(InitiatorSpec(
                f"ip{index}", "AXI",
                TrafficSpec(
                    kind="poisson", seed=seed + 20 + index, count=_ENDLESS,
                    rate=0.9 if is_hot else 0.7,
                    pairs=hot if is_hot else background,
                    tags=4, burst_beats=(4, 8),
                ),
                protocol_kwargs={"id_count": 4},
            ))
        builder.add_target(TargetSpec(
            "hot", size=0x2000, read_latency=14, write_latency=7,
            max_outstanding=1,
        ))
        for index in range(3):
            builder.add_target(TargetSpec(
                f"bg{index}", size=0x2000, read_latency=2, write_latency=1,
            ))
        return builder


class GalsLinks(Workload):
    name = "gals_links"

    def builder(self, seed, strict=False):
        builder = _mixed_builder(
            seed, self.window["rate"], strict,
            links={
                "router": LinkSpec(phit_bits=48, pipeline_latency=1),
                "endpoint": LinkSpec(phit_bits=96),
            },
            clock_domains={"cpu": 2, "io": (3, 1), "dsp": 2, "fab": 1},
            fabric_region="fab",
        )
        # Three regions round-robin over the initiators, targets in "io":
        # every NIU link crosses a clock domain.
        regions = ("cpu", "io", "dsp")
        for index, spec in enumerate(builder.initiators):
            spec.region = regions[index % len(regions)]
        for spec in builder.targets:
            spec.region = "io"
        return builder


class DmaCompletion(Workload):
    """Closed loop, run to completion through ``run_until`` (one
    ``step()`` per cycle, no time skip) — the way the paper benches and
    the examples use the kernel."""

    name = "dma_completion"
    _REGION = 0x4000
    _BURSTS, _BEATS, _BEAT_BYTES = 4, 8, 4

    def _program(self, rng, engine: int):
        links = self.window["links"]
        chunk = self._BURSTS * self._BEATS * self._BEAT_BYTES
        burst = dict(
            beats=self._BEATS, beat_bytes=self._BEAT_BYTES, bursts=self._BURSTS
        )
        program = []
        for link in range(links):
            offset = (engine * links + link) * chunk % self._REGION
            read = len(program)
            program.append(DmaDescriptor(
                "read", address=offset,
                after=(read - 1,) if link else (), **burst,
            ))
            program.append(DmaDescriptor(
                "compute", delay=rng.randint(8, 16), after=(read,),
            ))
            program.append(DmaDescriptor(
                "write", address=self._REGION + offset, after=(read + 1,),
                pattern=rng.randrange(1 << 16), **burst,
            ))
        return program

    def builder(self, seed, strict=False):
        rng = random.Random(seed)
        builder = SocBuilder(strict_kernel=True if strict else None)
        for engine in range(self.window["engines"]):
            builder.add_initiator(InitiatorSpec(
                f"dma{engine}", "AXI",
                TrafficSpec(
                    kind="dma", seed=seed, program=self._program(rng, engine)
                ),
                protocol_kwargs={"id_count": 4},
            ))
        builder.add_target(TargetSpec(
            "src", size=self._REGION, read_latency=6, write_latency=3
        ))
        builder.add_target(TargetSpec(
            "dst", size=self._REGION, read_latency=2, write_latency=1
        ))
        return builder

    def advance(self, soc, cycles=None):
        soc.run_to_completion(max_cycles=self.window["max_cycles"])

    def verify(self, soc):
        return [
            f"{name}: issued {m.issued} != completed {m.completed}"
            for name, m in soc.masters.items()
            if m.issued != m.completed or not m.completed
        ]


def _set_rate(rate, soc) -> None:
    for master in soc.masters.values():
        master.traffic.rate = rate


class SweepFork4(MixedSaturated):
    """Prefix of ``mixed_saturated``, one checkpoint, four forked
    offered-load continuations, serial in-process."""

    name = "sweep_fork4"

    def _overrides(self):
        return [
            Override(name=f"rate={rate}",
                     apply=functools.partial(_set_rate, rate))
            for rate in self.window["fork_rates"]
        ]

    def run(self, seed, *, strict=False, cycles=None, tracer=None):
        def build():
            soc = self.builder(seed).build()
            return soc if tracer is None else tracer.instrument(soc)

        # The rebuilds fork() makes are the sweep's own cost.
        rebuild = build if tracer is None else tracer.span("sweep", build)
        reset_ids()
        gc.collect()
        started = time.perf_counter()
        soc = build()
        build_s = time.perf_counter() - started
        gc.collect()
        with tracer.installed() if tracer is not None else nullcontext():
            started, cpu_started = time.perf_counter(), time.process_time()
            soc.run(self.window["prefix_cycles"])
            checkpoint = Checkpoint.capture(soc)
            # collect= hands the live continuations back, so observing
            # them (fingerprints) stays outside the timed region.
            report = fork(
                checkpoint, self._overrides(), builder=rebuild,
                cycles=self.window["fork_cycles"], processes=0,
                collect=lambda continuation: continuation,
            )
            wall_s = time.perf_counter() - started
            cpu_s = time.process_time() - cpu_started
        prefix = observe(soc)
        observed = [
            observe(entry["metrics"]) for entry in report["configs"].values()
        ]
        failures = [
            failure for o in [prefix] + observed for failure in _failures(o)
        ]
        # Work done by this run: the prefix once, plus what each
        # continuation added on top of it.
        counters = {
            key: value + sum(o["counters"][key] - value for o in observed)
            for key, value in prefix["counters"].items()
        }
        counters["sweep.checkpoint_bytes"] = len(checkpoint.to_bytes())
        busiest = observed[-1]
        return {
            "cycles": prefix["cycles"]
            + sum(o["cycles"] - prefix["cycles"] for o in observed),
            "flits": counters["transport.router.flits_forwarded"],
            # Simulated metrics are those of the highest-load override.
            "completed": busiest["completed"],
            "model_cycles": busiest["cycles"],
            "p50": busiest["p50"],
            "p99": busiest["p99"],
            "fingerprint": fingerprint_hash(
                [prefix["fingerprint"]] + [o["fingerprint"] for o in observed]
            ),
            "counters": counters,
            "wall_s": wall_s, "cpu_s": cpu_s, "build_s": build_s,
            "failures": failures,
            "forks": dict(zip(report["configs"], observed)),
        }

    def check(self, seed, reference):
        """Forked ≡ cold: every override's metrics equal those of a cold
        run that applied it at the same cycle."""
        failures = []
        for override in self._overrides():
            cold = run_cold(
                lambda: self.builder(seed).build(), override,
                self.window["prefix_cycles"], self.window["fork_cycles"],
                collect=observe,
            )
            if cold != reference["forks"][override.name]:
                failures.append(f"{override.name}: forked != cold observation")
        return failures, {}


class ShardedTorus2p(Workload):
    """16x16 DOR/dateline torus built with ``shards=2`` and run through
    ``run_sharded(processes=2)``; wall clock from call to return, worker
    spawn and build included."""

    name = "sharded_torus_2p"
    single_process = False
    traceable = False
    _TARGETS = 16

    def builder(self, seed, strict=False):
        width = self.window["width"]
        ranges = [(i * 0x1000, 0x1000) for i in range(self._TARGETS)]
        initiators = 3 * width * width // 16
        builder = SocBuilder(
            shards=2,
            topology=topology.torus(
                width, width, endpoints=initiators + self._TARGETS
            ),
            routing="dor", vcs=2, vc_policy="dateline",
            links={"router": LinkSpec(phit_bits=64, pipeline_latency=3)},
        )
        for index in range(initiators):
            builder.add_initiator(InitiatorSpec(
                f"ip{index}", "AXI",
                TrafficSpec(
                    kind="poisson", seed=seed + 30 + index, count=_ENDLESS,
                    rate=self.window["rate"], pairs=ranges,
                    tags=4, burst_beats=(4, 8),
                ),
                protocol_kwargs={"id_count": 4},
            ))
        for index in range(self._TARGETS):
            builder.add_target(TargetSpec(
                f"mem{index}", size=0x1000, read_latency=3, write_latency=2,
            ))
        return builder

    def _run_sharded(self, seed, processes):
        gc.collect()
        started, cpu_started = time.perf_counter(), time.process_time()
        result = run_sharded(
            lambda: self.builder(seed).build(),
            cycles=self.window["cycles"], processes=processes,
        )
        result["call_wall_s"] = time.perf_counter() - started
        result["call_cpu_s"] = time.process_time() - cpu_started
        return result

    def run(self, seed, *, strict=False, cycles=None, tracer=None):
        result = self._run_sharded(seed, processes=2)
        fingerprint = result["fingerprint"]
        timing = result["timing"]
        # Only per-master summaries survive the merge: the latency
        # metrics are their count-weighted means.
        summaries = [s for s in fingerprint["latencies"].values() if s["count"]]
        total = sum(s["count"] for s in summaries)
        masters = fingerprint["masters"]
        failures = [
            f"{name}: nothing completed" for name, m in masters.items()
            if not m[1]
        ]
        return {
            "cycles": result["cycle"],
            "flits": result["metrics"]["flits_forwarded"],
            "completed": result["metrics"]["completed"],
            "p50": sum(s["p50"] * s["count"] for s in summaries) / total,
            "p99": sum(s["p99"] * s["count"] for s in summaries) / total,
            "fingerprint": fingerprint_hash(fingerprint),
            "counters": {
                "transport.router.flits_forwarded":
                    result["metrics"]["flits_forwarded"],
                "phys.phits_carried": result["metrics"]["phits_carried"],
                "protocols.txns_completed": result["metrics"]["completed"],
                "niu.requests_sent": sum(
                    n[0] for n in fingerprint["initiator_nius"].values()
                ),
                "shard.rounds": timing["rounds"],
                "shard.safe_window_mean": timing["safe_window_mean"],
                "shard.coordinator_s": timing["coordinator_s"],
                "shard.busy_total_s": timing["busy_total_s"],
                "shard.critical_path_s": timing["critical_path_s"],
                "shard.boundary_flits": timing["boundary_flits"],
            },
            "wall_s": result["call_wall_s"],
            "cpu_s": result["call_cpu_s"],
            "build_s": None,
            "failures": failures,
        }

    def check(self, seed, reference):
        """``processes=0`` ≡ ``processes=2`` fingerprints of one build."""
        single = self._run_sharded(seed, processes=0)
        failures = []
        single_hash = fingerprint_hash(single["fingerprint"])
        if single_hash != reference["fingerprint"]:
            failures.append(
                f"processes=0 fingerprint {single_hash} != processes=2 "
                f"{reference['fingerprint']}"
            )
        return failures, {
            "shard.wall_vs_single":
                reference["wall_s"] / single["call_wall_s"],
        }


WORKLOADS = {
    cls.name: cls
    for cls in (
        MixedSaturated, MixedSparse, TorusHotspot, GalsLinks,
        DmaCompletion, SweepFork4, ShardedTorus2p,
    )
}
