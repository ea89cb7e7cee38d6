#!/usr/bin/env python
"""Quickstart: build a small mixed-protocol SoC on the layered NoC.

An AXI CPU and an OCP DSP share two memories through the VC-neutral
transaction layer.  This is the smallest end-to-end use of the public
API: declare initiators and targets, build, run, read the metrics.

Run:  python examples/quickstart.py
"""

from repro.core.transaction import make_read, make_write
from repro.ip import TrafficSpec
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec


def main() -> None:
    # 1. Declare the IP: what socket each block speaks, what it will do.
    cpu_program = TrafficSpec(kind="scripted", intents=[
        make_write(0x0000, [0x11, 0x22, 0x33, 0x44]),  # 4-beat INCR burst
        make_read(0x0000, beats=4),
        make_read(0x2000),  # second memory
    ])
    dsp_program = TrafficSpec(kind="scripted", intents=[
        make_write(0x2000, [0xAA], posted=True),  # OCP posted write
        make_read(0x0000),
    ])

    builder = SocBuilder(name="quickstart")
    builder.add_initiator(
        InitiatorSpec("cpu", "AXI", cpu_program,
                      protocol_kwargs={"id_count": 2})
    )
    builder.add_initiator(
        InitiatorSpec("dsp", "OCP", dsp_program,
                      protocol_kwargs={"threads": 2})
    )
    builder.add_target(TargetSpec("sram", size=0x2000, read_latency=2))
    builder.add_target(TargetSpec("dram", size=0x2000, read_latency=6))

    # 2. Build: the transaction layer is configured from the socket set.
    soc = builder.build()
    print("transaction layer:", soc.layer_config.describe())
    print()

    # 3. Run until all traffic completes.
    cycles = soc.run_to_completion()
    print(f"finished in {cycles} cycles")
    for name, master in soc.masters.items():
        lat = soc.master_latency(name)
        print(f"  {name} ({master.protocol_name}): "
              f"{master.completed} transactions, "
              f"mean latency {lat['mean']:.1f} cycles")

    # 4. The memories hold what the masters wrote.
    print()
    print(f"sram[0x0] = {soc.memories['sram'].read_beat(0x0, 4):#010x}")
    print(f"dram[0x0] = {soc.memories['dram'].read_beat(0x0, 4):#010x}")
    assert soc.ordering_violations() == 0
    print("ordering checks: clean")


if __name__ == "__main__":
    main()
