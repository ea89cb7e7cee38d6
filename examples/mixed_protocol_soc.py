#!/usr/bin/env python
"""The paper's Fig 1 vs Fig 2, runnable.

Five IP blocks with five different sockets (AHB CPU, AXI GPU, OCP DSP,
BVCI peripheral, proprietary accelerator) run the same workloads on

  (a) the layered NoC — each socket plugs in through its NIU, and
  (b) the reference-socket shared bus — each socket through a bridge,

then prints the latency, throughput and feature-coverage comparison of
paper claim C1.

Run:  python examples/mixed_protocol_soc.py
"""

from repro.bus import build_bus_soc, coverage_score
from repro.ip import TrafficSpec
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec

PROTOCOLS = ["AHB", "AXI", "OCP", "BVCI", "PROPRIETARY"]


def make_specs():
    ranges = [(0, 0x4000), (0x4000, 0x4000)]
    initiators = [
        InitiatorSpec("cpu_ahb", "AHB",
                      TrafficSpec(kind="dependent", pairs=ranges, count=50,
                                  seed=1)),
        InitiatorSpec("gpu_axi", "AXI",
                      TrafficSpec(kind="poisson", pairs=ranges, count=50,
                                  seed=2, rate=0.25, tags=4,
                                  burst_beats=(1, 4, 8)),
                      protocol_kwargs={"id_count": 4}),
        InitiatorSpec("dsp_ocp", "OCP",
                      TrafficSpec(kind="poisson", pairs=ranges, count=50,
                                  seed=3, rate=0.25, threads=2),
                      protocol_kwargs={"threads": 2}),
        InitiatorSpec("io_bvci", "BVCI",
                      TrafficSpec(kind="poisson", pairs=ranges, count=30,
                                  seed=4, rate=0.25)),
        InitiatorSpec("acc_msg", "PROPRIETARY",
                      TrafficSpec(kind="stream", base=0x1000,
                                  bytes_total=2048)),
    ]
    targets = [
        TargetSpec("dram", size=0x4000, read_latency=6, write_latency=3),
        TargetSpec("sram", size=0x4000, read_latency=2, write_latency=1),
    ]
    return initiators, targets


def main() -> None:
    print("=== Fig 1: layered NoC, one NIU per socket ===")
    initiators, targets = make_specs()
    builder = SocBuilder(name="fig1")
    for spec in initiators:
        builder.add_initiator(spec)
    for spec in targets:
        builder.add_target(spec)
    noc = builder.build()
    noc_cycles = noc.run_to_completion()
    print(f"packet format: {noc.fabric.packet_format.describe()}")
    print(f"completed {noc.total_completed()} transactions "
          f"in {noc_cycles} cycles")

    print()
    print("=== Fig 2: reference-socket bus, one bridge per socket ===")
    initiators, targets = make_specs()
    bus = build_bus_soc(initiators, targets)
    bus_cycles = bus.run_to_completion()
    print(f"completed {bus.total_completed()} transactions "
          f"in {bus_cycles} cycles "
          f"(bus busy {100 * bus.bus.utilization(bus_cycles):.0f}% "
          f"of the time)")

    print()
    print("=== comparison (paper claim C1) ===")
    print(f"{'master':<10}{'NoC mean lat':>14}{'bus mean lat':>14}"
          f"{'bridge coverage':>17}")
    for spec_protocol, name in [("AHB", "cpu_ahb"), ("AXI", "gpu_axi"),
                                 ("OCP", "dsp_ocp"), ("BVCI", "io_bvci"),
                                 ("PROPRIETARY", "acc_msg")]:
        noc_lat = noc.master_latency(name)["mean"]
        bus_lat = bus.master_latency(name)["mean"]
        cov = coverage_score(spec_protocol, "bridge")
        print(f"{name:<10}{noc_lat:>14.1f}{bus_lat:>14.1f}{cov:>17.2f}")
    speedup = bus_cycles / noc_cycles
    print()
    print(f"NoC finishes the same workload {speedup:.1f}x sooner, and "
          f"every socket keeps 100% of its features (bridges do not).")


if __name__ == "__main__":
    main()
