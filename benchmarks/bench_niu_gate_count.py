"""E4 — NIU gate count scales with outstanding transactions and targets.

Paper C3: the field-assignment policy lets NIUs "support one or many
simultaneously outstanding transactions and/or targets, scaling their
gate count to their expected performance within the system".

The sweep regenerates that scaling surface: protocol × outstanding budget
× multi-target, plus the service-state costs and the bridge comparison.
"""

import pytest

from repro.core.layer import build_layer_config
from repro.core.ordering import OrderingModel
from repro.core.protocols import family
from repro.niu.gate_count import bridge_gate_count, niu_gate_count
from repro.niu.tag_policy import TagPolicy

PROTOCOLS = ["PVCI", "AHB", "BVCI", "OCP", "AVCI", "AXI", "PROPRIETARY"]
FMT = build_layer_config(PROTOCOLS, initiators=8, targets=8).packet_format


def policy_for(protocol, outstanding, multi_target=True):
    return TagPolicy(
        ordering=family(protocol).ordering,
        tag_bits=FMT.tag_bits,
        max_outstanding=outstanding,
        per_stream_outstanding=outstanding,
        multi_target=multi_target,
    )


def test_e4_gate_scaling_table(benchmark, heading):
    heading("E4: NIU gate count vs outstanding-transaction budget")
    budgets = (1, 2, 4, 8, 16, 32)
    print(f"{'protocol':<13}" + "".join(f"{b:>9}" for b in budgets))
    for protocol in PROTOCOLS:
        row = []
        for budget in budgets:
            total = niu_gate_count(
                protocol, policy_for(protocol, budget), FMT
            ).total
            row.append(total)
        print(f"{protocol:<13}" + "".join(f"{g:>9,.0f}" for g in row))
        # Monotone growth (linear state-table term dominates).
        assert row == sorted(row)
        assert row[-1] > 2 * row[0]
    benchmark(lambda: [
        niu_gate_count(p, policy_for(p, b), FMT)
        for p in PROTOCOLS for b in budgets
    ])


def test_e4_minimal_vs_performance_configs(heading):
    heading("E4b: minimal vs performance NIU configurations")
    print(f"{'protocol':<13}{'minimal':>10}{'performance':>13}{'ratio':>7}")
    for protocol in PROTOCOLS:
        minimal = niu_gate_count(
            protocol, policy_for(protocol, 1, multi_target=False), FMT
        ).total
        performance = niu_gate_count(
            protocol, policy_for(protocol, 16, multi_target=True), FMT,
            exclusive_monitor_entries=8,
        ).total
        print(f"{protocol:<13}{minimal:>10,.0f}{performance:>13,.0f}"
              f"{performance / minimal:>7.1f}")
        assert performance > minimal


def test_e4_breakdown_and_bridge_contrast(heading):
    heading("E4c: gate breakdown (AXI, 8 outstanding) + bridge contrast")
    report = niu_gate_count("AXI", policy_for("AXI", 8), FMT,
                            exclusive_monitor_entries=8)
    print(report.describe())
    bridge = bridge_gate_count("AXI")
    print()
    print(bridge.describe())
    assert "state_table" in report.breakdown
    assert "reorder_buffer" in report.breakdown
    # The bridge duplicates protocol machinery (two front-ends).
    fsm_keys = [k for k in bridge.breakdown if k.endswith("_fsm")]
    assert len(fsm_keys) == 2


def test_e4_format_width_term(heading):
    heading("E4d: packet-format width term (node-count scaling)")
    print(f"{'nodes':>7}{'header bits':>13}{'AXI NIU gates':>15}")
    last = 0.0
    for nodes in (4, 16, 64):
        fmt = build_layer_config(
            ["AXI"], initiators=nodes // 2, targets=nodes // 2
        ).packet_format
        policy = TagPolicy(ordering=OrderingModel.ID_BASED,
                           tag_bits=fmt.tag_bits, max_outstanding=8,
                           per_stream_outstanding=8)
        total = niu_gate_count("AXI", policy, fmt).total
        print(f"{nodes:>7}{fmt.header_bits():>13}{total:>15,.0f}")
        assert total >= last
        last = total
