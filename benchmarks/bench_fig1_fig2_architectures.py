"""E1 — Fig 1 vs Fig 2: layered NoC vs reference-socket bus + bridges.

Identical five-socket IP set and workloads on both architectures.
Reported per architecture: completion cycles, mean/p95 transaction
latency, interconnect area proxy (gates), aggregate feature coverage.

Expected shape (paper C1): the NoC completes sooner with lower latency at
load, preserves 100% of socket features, and its per-socket attachment
area compares favourably with two-front-end bridges.
"""

import pytest

from benchmarks.conftest import build_noc, mixed_initiators, mixed_targets
from repro.bus import build_bus_soc, coverage_score
from repro.bus.coverage import format_matrix
from repro.core.layer import build_layer_config
from repro.niu.gate_count import bridge_gate_count, niu_gate_count
from repro.niu.tag_policy import TagPolicy
from repro.core.protocols import family

PROTOCOLS = ["AHB", "AXI", "OCP", "BVCI", "PROPRIETARY"]


def run_noc():
    soc = build_noc(mixed_initiators(), mixed_targets())
    cycles = soc.run_to_completion(max_cycles=500_000)
    return soc, cycles


def run_bus():
    soc = build_bus_soc(mixed_initiators(), mixed_targets())
    cycles = soc.run_to_completion(max_cycles=1_000_000)
    return soc, cycles


def attachment_gates():
    cfg = build_layer_config(PROTOCOLS, initiators=5, targets=2)
    niu_total = 0.0
    bridge_total = 0.0
    for protocol in PROTOCOLS:
        policy = TagPolicy(ordering=family(protocol).ordering)
        niu_total += niu_gate_count(protocol, policy, cfg.packet_format).total
        bridge_total += bridge_gate_count(protocol).total
    return niu_total, bridge_total


def test_e1_architecture_comparison(benchmark, heading):
    heading("E1: Fig-1 layered NoC vs Fig-2 bridged bus (same IP, same load)")
    noc, noc_cycles = run_noc()
    bus, bus_cycles = run_bus()
    noc_lat = noc.aggregate_latency()
    bus_lat = bus.aggregate_latency()
    niu_gates, bridge_gates = attachment_gates()
    noc_cov = sum(coverage_score(p, "niu") for p in PROTOCOLS) / len(PROTOCOLS)
    bus_cov = sum(coverage_score(p, "bridge") for p in PROTOCOLS) / len(PROTOCOLS)

    print(f"{'architecture':<14}{'cycles':>9}{'mean lat':>10}"
          f"{'p95 lat':>9}{'txns':>7}{'coverage':>10}{'attach gates':>14}")
    print(f"{'NoC (Fig 1)':<14}{noc_cycles:>9}{noc_lat['mean']:>10.1f}"
          f"{noc_lat['p95']:>9.0f}{noc.total_completed():>7}"
          f"{noc_cov:>10.2f}{niu_gates:>14,.0f}")
    print(f"{'bus (Fig 2)':<14}{bus_cycles:>9}{bus_lat['mean']:>10.1f}"
          f"{bus_lat['p95']:>9.0f}{bus.total_completed():>7}"
          f"{bus_cov:>10.2f}{bridge_gates:>14,.0f}")
    print()
    print(format_matrix("bridge"))

    # Shape assertions (paper C1).
    assert noc.total_completed() == bus.total_completed()
    assert noc_cycles < bus_cycles
    assert noc_lat["mean"] < bus_lat["mean"]
    assert noc_cov == 1.0 and bus_cov < 1.0
    assert noc.ordering_violations() == 0 and bus.ordering_violations() == 0

    benchmark.extra_info["noc_cycles"] = noc_cycles
    benchmark.extra_info["bus_cycles"] = bus_cycles
    benchmark(lambda: run_noc()[1])


def test_e1_gap_grows_with_load(benchmark, heading):
    heading("E1b: latency gap vs offered load")
    print(f"{'rate':>6}{'NoC mean':>10}{'bus mean':>10}{'bus/NoC':>9}")
    ratios = []
    for rate in (0.05, 0.2, 0.5):
        noc = build_noc(mixed_initiators(count=30, rate=rate), mixed_targets())
        noc.run_to_completion(max_cycles=500_000)
        bus = build_bus_soc(mixed_initiators(count=30, rate=rate),
                            mixed_targets())
        bus.run_to_completion(max_cycles=1_000_000)
        n, b = noc.aggregate_latency()["mean"], bus.aggregate_latency()["mean"]
        ratios.append(b / n)
        print(f"{rate:>6.2f}{n:>10.1f}{b:>10.1f}{b / n:>9.2f}")
    assert all(r > 1.0 for r in ratios)  # bus never wins
    benchmark(lambda: build_noc(
        mixed_initiators(count=10), mixed_targets()
    ).run_to_completion(max_cycles=500_000))
