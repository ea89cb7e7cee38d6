"""E2 — one packet format absorbs all three ordering models (claim C3).

The same fabric carries a fully-ordered AHB master, a threaded OCP master
and an ID-based AXI master; every run must finish with zero ordering
violations.  The second half sweeps the outstanding-transaction budget of
an AXI NIU (the paper's gates-vs-performance knob) and an ablation of the
tag-policy multi-target flag.
"""

import pytest

from benchmarks.conftest import build_noc, mixed_targets
from repro.core.ordering import OrderingModel
from repro.ip import TrafficSpec
from repro.niu.tag_policy import TagPolicy
from repro.soc import InitiatorSpec, TargetSpec

RANGES = [(0, 0x4000), (0x4000, 0x4000)]


def three_model_soc():
    inits = [
        InitiatorSpec("ahb", "AHB",
                      TrafficSpec(kind="poisson", pairs=RANGES, count=60,
                                  seed=1, rate=0.5)),
        InitiatorSpec("ocp", "OCP",
                      TrafficSpec(kind="poisson", pairs=RANGES, count=60,
                                  seed=2, threads=4, rate=0.5),
                      protocol_kwargs={"threads": 4}),
        InitiatorSpec("axi", "AXI",
                      TrafficSpec(kind="poisson", pairs=RANGES, count=60,
                                  seed=3, tags=4, rate=0.5),
                      protocol_kwargs={"id_count": 4}),
    ]
    return build_noc(inits, mixed_targets())


def axi_soc(outstanding, multi_target=True):
    policy = TagPolicy(
        ordering=OrderingModel.ID_BASED,
        tag_bits=4,
        max_outstanding=outstanding,
        per_stream_outstanding=outstanding,
        multi_target=multi_target,
    )
    inits = [
        InitiatorSpec(
            "axi", "AXI",
            TrafficSpec(kind="poisson", pairs=RANGES, count=150, seed=7,
                        tags=4, rate=1.0, burst_beats=(1, 4)),
            policy=policy,
            protocol_kwargs={"id_count": 4,
                             "max_outstanding_reads": outstanding,
                             "max_outstanding_writes": outstanding},
        )
    ]
    return build_noc(inits, mixed_targets())


def test_e2_three_ordering_models_one_fabric(benchmark, heading):
    heading("E2: AHB + OCP + AXI ordering models on one packet format")
    soc = three_model_soc()
    cycles = soc.run_to_completion(max_cycles=500_000)
    print(f"{'master':<8}{'model':<16}{'txns':>6}{'mean lat':>10}"
          f"{'violations':>12}")
    for name, master in soc.masters.items():
        lat = soc.master_latency(name)
        print(f"{name:<8}{master.ordering_model.value:<16}"
              f"{master.completed:>6}{lat['mean']:>10.1f}"
              f"{len(master.checker.violations):>12}")
    assert soc.ordering_violations() == 0
    assert soc.total_completed() == 180
    models = {m.ordering_model for m in soc.masters.values()}
    assert models == set(OrderingModel)
    benchmark.extra_info["cycles"] = cycles
    benchmark(lambda: three_model_soc().run_to_completion(max_cycles=500_000))


def test_e2_throughput_scales_with_outstanding(benchmark, heading):
    heading("E2b: AXI NIU outstanding-transaction budget sweep")
    print(f"{'outstanding':>12}{'cycles':>9}{'txns/kcycle':>13}")
    cycles_by_budget = {}
    for outstanding in (1, 2, 4, 8):
        soc = axi_soc(outstanding)
        cycles = soc.run_to_completion(max_cycles=500_000)
        cycles_by_budget[outstanding] = cycles
        print(f"{outstanding:>12}{cycles:>9}"
              f"{1000 * soc.total_completed() / cycles:>13.1f}")
        assert soc.ordering_violations() == 0
    # Deeper budgets finish the same work in fewer cycles.
    assert cycles_by_budget[8] < cycles_by_budget[1]
    benchmark(lambda: axi_soc(4).run_to_completion(max_cycles=500_000))


def test_e2_ablation_multi_target_policy(benchmark, heading):
    heading("E2c: ablation — multi-target streams vs stall-on-target-switch")
    results = {}
    for multi_target in (False, True):
        soc = axi_soc(8, multi_target=multi_target)
        cycles = soc.run_to_completion(max_cycles=500_000)
        results[multi_target] = cycles
        label = "multi-target (reorder)" if multi_target else "single-target"
        print(f"{label:<24}{cycles:>9} cycles")
        assert soc.ordering_violations() == 0
    # Allowing several targets in flight is never slower.
    assert results[True] <= results[False]
    benchmark(lambda: axi_soc(8, multi_target=False)
              .run_to_completion(max_cycles=500_000))
