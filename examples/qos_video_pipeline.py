#!/usr/bin/env python
"""Layer separation in practice: tuning QoS and physical width
independently of the IP (paper §1).

A latency-critical video flow shares a DRAM port with three bulk
masters.  We sweep (a) the video flow's transport-layer priority and
(b) the fabric's physical flit width — without touching a single IP
block or NIU — and watch transaction latency respond.

Run:  python examples/qos_video_pipeline.py
"""

from repro.ip import TrafficSpec
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.transport import topology as topo


def build(video_priority: int, flit_bits: int = 128):
    builder = SocBuilder(
        topology=topo.ring(5, endpoints=5),
        arbiter="priority",
        flit_payload_bits=flit_bits,
    )
    builder.add_initiator(
        InitiatorSpec(
            "video", "AXI",
            TrafficSpec(kind="stream", base=0x0, bytes_total=4096,
                        write=False, priority=video_priority, gap_cycles=2),
            protocol_kwargs={"id_count": 2},
        )
    )
    for i in range(3):
        builder.add_initiator(
            InitiatorSpec(
                f"bulk{i}", "BVCI",
                TrafficSpec(kind="poisson", pairs=[(0, 0x4000)], count=60,
                            seed=30 + i, rate=0.8, burst_beats=(4, 8)),
            )
        )
    builder.add_target(TargetSpec("dram", size=0x4000, read_latency=4))
    return builder.build()


def main() -> None:
    print("=== transport-layer QoS sweep (video priority) ===")
    print(f"{'priority':>9}{'video mean':>12}{'video p95':>11}"
          f"{'bulk mean':>11}")
    for priority in (0, 1, 2, 3):
        soc = build(video_priority=priority)
        soc.run_to_completion()
        video = soc.master_latency("video")
        bulk = sum(soc.master_latency(f"bulk{i}")["mean"]
                   for i in range(3)) / 3
        print(f"{priority:>9}{video['mean']:>12.1f}{video['p95']:>11.0f}"
              f"{bulk:>11.1f}")

    print()
    print("=== physical-layer width sweep (same IP, same NIUs) ===")
    print(f"{'flit bits':>10}{'cycles':>9}{'video mean':>12}")
    for flit_bits in (96, 128, 256):
        soc = build(video_priority=2, flit_bits=flit_bits)
        cycles = soc.run_to_completion()
        print(f"{flit_bits:>10}{cycles:>9}"
              f"{soc.master_latency('video')['mean']:>12.1f}")

    print()
    print("Neither sweep touched an IP model or NIU configuration —")
    print("exactly the independent optimization the layering promises.")


if __name__ == "__main__":
    main()
