#!/usr/bin/env python
"""Paper §3: legacy LOCK vs exclusive-access synchronization.

Two masters contend for a semaphore while a bystander streams unrelated
reads through the same fabric.  The legacy style (AHB READEX/locked
write) blocks switch ports along the path; the exclusive style (AXI
exclusive pair, one packet user bit + NIU monitor state) never blocks
anyone — it just retries on a lost reservation.

Run:  python examples/exclusive_sync.py
"""

from repro.core.transaction import make_read
from repro.ip import TrafficSpec
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.transport import topology as topo


def build(style: str):
    protocol = "AHB" if style == "lock" else "AXI"
    builder = SocBuilder(topology=topo.ring(5, endpoints=5))
    for i in range(2):
        builder.add_initiator(
            InitiatorSpec(
                f"sync{i}", protocol,
                TrafficSpec(kind="sync", style=style, sema_addr=0x0,
                            work_addr=0x100 + 0x40 * i, iterations=8,
                            work_ops=4),
            )
        )
    builder.add_initiator(
        InitiatorSpec(
            "bystander", "BVCI",
            TrafficSpec(kind="scripted",
                        intents=[make_read(0x200 + 4 * i) for i in range(50)]),
        )
    )
    builder.add_target(TargetSpec("sema", size=0x1000))
    builder.add_target(TargetSpec("other", size=0x1000))
    return builder.build()


def run(style: str):
    soc = build(style)
    cycles = soc.run_to_completion()
    sections = sum(soc.masters[f"sync{i}"].traffic.sections_completed
                   for i in range(2))
    retries = sum(getattr(soc.masters[f"sync{i}"].traffic, "retries", 0)
                  for i in range(2))
    stalls = (soc.fabric.total_lock_stall_cycles()
              + soc.target_nius["sema"].lock_blocked_cycles)
    return dict(
        cycles=cycles,
        sections=sections,
        retries=retries,
        bystander=soc.master_latency("bystander")["mean"],
        stalls=stalls,
    )


def main() -> None:
    lock = run("lock")
    excl = run("excl")
    print("Two masters, 8 critical sections each, plus a bystander:")
    print()
    print(f"{'':14}{'lock (READEX)':>16}{'exclusive (excl bit)':>22}")
    print(f"{'cycles':<14}{lock['cycles']:>16}{excl['cycles']:>22}")
    print(f"{'sections':<14}{lock['sections']:>16}{excl['sections']:>22}")
    print(f"{'retries':<14}{lock['retries']:>16}{excl['retries']:>22}")
    print(f"{'bystander lat':<14}{lock['bystander']:>16.1f}"
          f"{excl['bystander']:>22.1f}")
    print(f"{'lock stalls':<14}{lock['stalls']:>16}{excl['stalls']:>22}")
    print()
    print("The LOCK family reaches into the transport layer: switches hold")
    print("ports for the locking master and the bystander pays for it.")
    print("The exclusive service is one packet bit plus monitor state in")
    print("the target NIU — the fabric never knows it happened.")


if __name__ == "__main__":
    main()
