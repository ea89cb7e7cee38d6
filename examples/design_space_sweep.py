#!/usr/bin/env python
"""Design-space sweep: fork one warmed prefix across a VC x load grid.

A sweep normally pays the warm-up prefix once per configuration.  With
checkpoints it pays it once, total: run the baseline fabric to a steady
state, capture it, then fork what-if continuations — here three offered
loads (warm forks of the same checkpoint) and a 2-VC dateline-torus
variant (structural, so it runs cold with its own builder) — across a
process pool, and compare throughput/latency per configuration.

Run:  python examples/design_space_sweep.py
"""

import functools

from repro.ip import TrafficSpec
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.sweep import Checkpoint, Override, fork
from repro.transport import topology as topo

RANGES = [(0, 0x2000), (0x2000, 0x2000)]
PREFIX_CYCLES = 1200
RUN_CYCLES = 2500


def _populate(builder: SocBuilder) -> SocBuilder:
    builder.add_initiator(
        InitiatorSpec("cpu", "AXI",
                      TrafficSpec(kind="dependent", pairs=RANGES, count=300,
                                  seed=11),
                      protocol_kwargs={"id_count": 4})
    )
    builder.add_initiator(
        InitiatorSpec("gpu", "AXI",
                      TrafficSpec(kind="poisson", pairs=RANGES, count=5000,
                                  seed=12, rate=0.3, tags=4),
                      protocol_kwargs={"id_count": 4})
    )
    builder.add_target(TargetSpec("sram", size=0x2000, read_latency=2))
    builder.add_target(TargetSpec("dram", size=0x2000, read_latency=6))
    return builder


def build_baseline():
    """The checkpointed fabric: single-VC 2x2 mesh."""
    return _populate(SocBuilder(name="sweep")).build()


def build_vc_torus():
    """Structural variant: 2-VC dateline torus (cold-run configuration)."""
    return _populate(
        SocBuilder(
            name="sweep-vc",
            topology=topo.torus(2, 2, endpoints=4),
            routing="dor",
            vcs=2,
            vc_policy="dateline",
        )
    ).build()


def set_gpu_rate(rate, soc):
    soc.masters["gpu"].traffic.rate = rate


def main() -> None:
    # 1. Warm the baseline fabric once and freeze it.
    soc = build_baseline()
    soc.run(PREFIX_CYCLES)
    checkpoint = Checkpoint.capture(soc)
    print(f"captured warm prefix at cycle {checkpoint.cycle} "
          f"({soc.total_completed()} transactions retired)")

    # 2. The grid: three loads forked warm, one structural cold variant.
    overrides = [
        Override(name=f"load={rate}",
                 apply=functools.partial(set_gpu_rate, rate))
        for rate in (0.1, 0.3, 0.6)
    ]
    overrides.append(Override(name="vc=2-torus", build=build_vc_torus))

    report = fork(
        checkpoint,
        overrides,
        builder=build_baseline,
        cycles=RUN_CYCLES,
        processes=2,
    )

    # 3. Deterministic comparison table, keyed by configuration.
    print(f"\nfork cycle {report['fork_cycle']}, "
          f"+{report['run_cycles']} cycles per configuration:")
    header = f"{'config':<14} {'mode':<5} {'done':>5} {'flits':>7} {'mean':>7} {'p99':>7}"
    print(header)
    print("-" * len(header))
    for name, entry in report["configs"].items():
        metrics = entry["metrics"]
        latency = metrics["latency"]
        print(f"{name:<14} {entry['mode']:<5} {metrics['completed']:>5} "
              f"{metrics['flits_forwarded']:>7} {latency['mean']:>7.1f} "
              f"{latency['p99']:>7.1f}")

    assert all(e["metrics"]["completed"] > 0 for e in report["configs"].values())
    print("\nsweep complete: one prefix, four futures")


if __name__ == "__main__":
    main()
