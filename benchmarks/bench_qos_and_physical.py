"""E7 — QoS at the transport layer, width at the physical layer.

Paper §1: "the transport layer focuses on quality of service and
scalability, physical layers on … achieving raw bandwidth".  Part one
separates a latency-critical flow from best-effort traffic with packet
priorities; part two sweeps the flit width (physical serialization) and
shows bandwidth scaling with no transaction-level change.
"""

import pytest

from benchmarks.conftest import build_noc, mixed_targets
from repro.ip import TrafficSpec
from repro.phys.link import phits_per_flit
from repro.soc import InitiatorSpec, TargetSpec
from repro.transport import topology as topo


def qos_soc(priority_on):
    # Bulk masters stream 8-beat writes at full rate so contention sits
    # in the fabric (many payload flits per packet at 96-bit flits), not
    # in the memory controller — transport QoS can only help with fabric
    # contention.
    inits = [
        InitiatorSpec(
            "video", "AXI",
            TrafficSpec(kind="stream", base=0x0, bytes_total=2048,
                        write=False, priority=2 if priority_on else 0,
                        gap_cycles=2),
            protocol_kwargs={"id_count": 2},
        ),
    ]
    for i in range(3):
        inits.append(
            InitiatorSpec(
                f"bulk{i}", "BVCI",
                TrafficSpec(kind="poisson", pairs=[(0, 0x4000)], count=60,
                            seed=20 + i, rate=1.0, read_fraction=0.0,
                            burst_beats=(8,)),
            )
        )
    return build_noc(inits,
                     [TargetSpec("dram", size=0x4000, read_latency=2,
                                 write_latency=1)],
                     topology=topo.ring(5, endpoints=5),
                     arbiter="priority",
                     flit_payload_bits=96)


def run_qos(priority_on):
    soc = qos_soc(priority_on)
    soc.run_to_completion(max_cycles=500_000)
    bulk = [soc.master_latency(f"bulk{i}")["mean"] for i in range(3)]
    return {
        "video_mean": soc.master_latency("video")["mean"],
        "video_p95": soc.master_latency("video")["p95"],
        "bulk_mean": sum(bulk) / len(bulk),
    }


def test_e7_priority_separates_classes(benchmark, heading):
    heading("E7: transport-layer QoS — video vs bulk traffic")
    off = run_qos(priority_on=False)
    on = run_qos(priority_on=True)
    print(f"{'config':<16}{'video mean':>12}{'video p95':>11}"
          f"{'bulk mean':>11}")
    print(f"{'no priority':<16}{off['video_mean']:>12.1f}"
          f"{off['video_p95']:>11.0f}{off['bulk_mean']:>11.1f}")
    print(f"{'video prio=2':<16}{on['video_mean']:>12.1f}"
          f"{on['video_p95']:>11.0f}{on['bulk_mean']:>11.1f}")
    # Priorities must help the critical flow.
    assert on["video_mean"] < off["video_mean"]
    assert on["video_p95"] <= off["video_p95"]
    benchmark.extra_info.update(off=off, on=on)
    benchmark(lambda: run_qos(True))


def test_e7_physical_width_sweep(benchmark, heading):
    heading("E7b: physical width sweep (flit serialization)")
    from benchmarks.conftest import mixed_initiators

    print(f"{'flit bits':>10}{'cycles':>9}{'flits':>8}{'mean lat':>10}"
          f"{'phits/flit @72w':>17}")
    cycles_by_width = {}
    fingerprints = {}
    for width in (96, 128, 256):
        soc = build_noc(mixed_initiators(count=25), mixed_targets(),
                        flit_payload_bits=width)
        cycles = soc.run_to_completion(max_cycles=500_000)
        cycles_by_width[width] = cycles
        fingerprints[width] = soc.memory_image()
        print(f"{width:>10}{cycles:>9}"
              f"{soc.fabric.total_flits_forwarded():>8}"
              f"{soc.aggregate_latency()['mean']:>10.1f}"
              f"{phits_per_flit(width, 72):>17}")
    # Narrower flits -> more flits per packet -> more cycles...
    assert cycles_by_width[96] >= cycles_by_width[256]
    # ...but identical transaction-level results (layer independence).
    assert fingerprints[96] == fingerprints[128] == fingerprints[256]
    benchmark(lambda: build_noc(
        mixed_initiators(count=10), mixed_targets(), flit_payload_bits=96
    ).run_to_completion(max_cycles=500_000))
