"""Shared workload builders for the experiment benches (E1..E8).

Every bench prints the rows of its experiment (listed under "Paper-claim
benches" in ROADMAP.md) and asserts the *shape* of the paper's claim (who
wins, what scales, what is unchanged), then hands one representative
simulation to pytest-benchmark for wall-clock timing.
"""

from __future__ import annotations

import pytest

from repro.ip import TrafficSpec
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec


def mixed_initiators(count=40, rate=0.25):
    """The Fig-1/Fig-2 SoC: five socket families, one of each."""
    ranges = [(0, 0x4000), (0x4000, 0x4000)]
    return [
        InitiatorSpec("cpu_ahb", "AHB",
                      TrafficSpec(kind="dependent", pairs=ranges, count=count,
                                  seed=1)),
        InitiatorSpec("gpu_axi", "AXI",
                      TrafficSpec(kind="poisson", pairs=ranges, count=count,
                                  seed=2, tags=4, rate=rate,
                                  burst_beats=(1, 4, 8)),
                      protocol_kwargs={"id_count": 4}),
        InitiatorSpec("dsp_ocp", "OCP",
                      TrafficSpec(kind="poisson", pairs=ranges, count=count,
                                  seed=3, threads=2, rate=rate),
                      protocol_kwargs={"threads": 2}),
        InitiatorSpec("io_bvci", "BVCI",
                      TrafficSpec(kind="poisson", pairs=ranges, count=count,
                                  seed=4, rate=rate)),
        InitiatorSpec("acc_msg", "PROPRIETARY",
                      TrafficSpec(kind="stream", base=0x2000, bytes_total=1024)),
    ]


def mixed_targets():
    return [
        TargetSpec("dram", size=0x4000, read_latency=6, write_latency=3),
        TargetSpec("sram", size=0x4000, read_latency=2, write_latency=1),
    ]


def build_noc(initiators, targets, **kwargs):
    builder = SocBuilder(**kwargs)
    for spec in initiators:
        builder.add_initiator(spec)
    for spec in targets:
        builder.add_target(spec)
    return builder.build()


@pytest.fixture
def heading(request):
    def print_heading(title):
        print()
        print("=" * 72)
        print(title)
        print("=" * 72)
    return print_heading
