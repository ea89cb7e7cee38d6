"""E8 — per-bridge penalty decomposition (claim C1 in detail).

For each socket family: unloaded round-trip latency through its NIU on
the NoC vs through its bridge on the bus; attachment gate counts; and the
feature-coverage matrix entries.  "Bridges introduce area and latency
penalties, but worse, they also do not support the full set of VC
transactions."
"""

import pytest

from repro.bus import build_bus_soc, coverage_score
from repro.bus.coverage import PROTOCOL_FEATURES
from repro.core.layer import build_layer_config
from repro.core.protocols import family
from repro.core.transaction import make_read
from repro.ip import TrafficSpec
from repro.niu.gate_count import bridge_gate_count, niu_gate_count
from repro.niu.tag_policy import TagPolicy
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec

PROTOCOLS = ["AHB", "AXI", "OCP", "PVCI", "BVCI", "AVCI", "PROPRIETARY"]


def unloaded_latency_noc(protocol):
    builder = SocBuilder()
    builder.add_initiator(
        InitiatorSpec("m", protocol,
                      TrafficSpec(kind="scripted", intents=[make_read(0x40)]))
    )
    builder.add_target(TargetSpec("mem", size=0x1000, read_latency=4))
    soc = builder.build()
    soc.run_to_completion(max_cycles=10_000)
    return soc.master_latency("m")["mean"]


def unloaded_latency_bus(protocol, bridge_latency=2):
    soc = build_bus_soc(
        [InitiatorSpec("m", protocol,
                       TrafficSpec(kind="scripted", intents=[make_read(0x40)]))],
        [TargetSpec("mem", size=0x1000, read_latency=4)],
        bridge_latency=bridge_latency,
    )
    soc.run_to_completion(max_cycles=10_000)
    return soc.master_latency("m")["mean"]


def test_e8_per_protocol_penalties(benchmark, heading):
    heading("E8: per-socket attachment penalties (NIU vs bridge)")
    fmt = build_layer_config(PROTOCOLS, initiators=7, targets=1).packet_format
    print(f"{'protocol':<13}{'NoC lat':>9}{'bus lat':>9}{'bridge pen.':>12}"
          f"{'NIU gates':>11}{'bridge gates':>14}{'coverage':>10}")
    for protocol in PROTOCOLS:
        noc_lat = unloaded_latency_noc(protocol)
        bus_lat = unloaded_latency_bus(protocol)
        # Bridge penalty = bridged bus vs an (unrealizable) zero-latency
        # bridge on the same bus: what the conversion itself costs.
        bus_ideal = unloaded_latency_bus(protocol, bridge_latency=0)
        penalty = bus_lat - bus_ideal
        policy = TagPolicy(ordering=family(protocol).ordering,
                           tag_bits=fmt.tag_bits)
        niu = niu_gate_count(protocol, policy, fmt).total
        bridge = bridge_gate_count(protocol).total
        cov = coverage_score(protocol, "bridge")
        print(f"{protocol:<13}{noc_lat:>9.0f}{bus_lat:>9.0f}{penalty:>12.0f}"
              f"{niu:>11,.0f}{bridge:>14,.0f}{cov:>10.2f}")
        # Every bridge pays conversion latency (claim C1)...
        assert penalty >= 2
        # ...while the NoC attachment keeps full socket semantics.
        assert coverage_score(protocol, "niu") == 1.0
    benchmark(lambda: [unloaded_latency_noc("AXI"),
                       unloaded_latency_bus("AXI")])


def test_e8_feature_loss_counts(heading):
    heading("E8b: feature losses per protocol through a bridge")
    from repro.bus.coverage import BRIDGE_COVERAGE, FeatureSupport

    total_features = 0
    total_lost = 0
    total_emulated = 0
    print(f"{'protocol':<13}{'features':>9}{'native':>8}{'emulated':>10}"
          f"{'lost':>6}")
    for protocol in PROTOCOLS:
        matrix = BRIDGE_COVERAGE[protocol]
        native = sum(1 for s in matrix.values()
                     if s is FeatureSupport.NATIVE)
        emulated = sum(1 for s in matrix.values()
                       if s is FeatureSupport.EMULATED)
        lost = sum(1 for s in matrix.values() if s is FeatureSupport.LOST)
        total_features += len(matrix)
        total_lost += lost
        total_emulated += emulated
        print(f"{protocol:<13}{len(matrix):>9}{native:>8}{emulated:>10}"
              f"{lost:>6}")
        assert set(matrix) == set(PROTOCOL_FEATURES[protocol])
    print(f"{'TOTAL':<13}{total_features:>9}"
          f"{total_features - total_lost - total_emulated:>8}"
          f"{total_emulated:>10}{total_lost:>6}")
    # The paper's qualitative claim, quantified: bridges lose features.
    assert total_lost > 0 and total_emulated > 0


def test_e8_burst_splitting_cost(benchmark, heading):
    heading("E8c: long-burst splitting on the reference bus")
    from repro.core.transaction import make_write

    print(f"{'beats':>7}{'bus transfers':>15}{'cycles':>9}")
    for beats in (8, 16, 32, 64):
        soc = build_bus_soc(
            [InitiatorSpec(
                "m", "AXI",
                TrafficSpec(kind="scripted",
                            intents=[make_write(0x0, list(range(beats)))]),
            )],
            [TargetSpec("mem", size=0x1000)],
        )
        cycles = soc.run_to_completion(max_cycles=50_000)
        transfers = soc.bus.transfers
        print(f"{beats:>7}{transfers:>15}{cycles:>9}")
        import math
        assert transfers == math.ceil(beats / 16)
    benchmark(lambda: build_bus_soc(
        [InitiatorSpec("m", "AXI",
                       TrafficSpec(kind="scripted",
                                   intents=[make_write(0x0, list(range(32)))]))],
        [TargetSpec("mem", size=0x1000)],
    ).run_to_completion(max_cycles=50_000))
