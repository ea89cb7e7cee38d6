"""E3 — blocking LOCK/READEX vs non-blocking exclusive access (claim C4).

Two masters run semaphore-protected critical sections in each style while
a bystander master streams unrelated reads through the same fabric.
Reported: section throughput, bystander latency, transport lock stalls.

Expected shape: the lock style blocks the bystander (transport-level
stalls > 0, higher bystander latency); the exclusive style leaves it
untouched — which is why OCP/AXI introduced these transactions.
"""

import pytest

from repro.core.transaction import make_read
from repro.ip import TrafficSpec, WorkloadStallError
from repro.niu import TargetNiu
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.transport import topology as topo


def sync_soc(style, transport_lock_support=None):
    """Two contenders + bystander; bystander shares the path to 'sema'."""
    builder = SocBuilder(topology=topo.ring(5, endpoints=5),
                         transport_lock_support=transport_lock_support)
    protocol = "AHB" if style == "lock" else "AXI"
    for i in range(2):
        builder.add_initiator(
            InitiatorSpec(
                f"sync{i}", protocol,
                TrafficSpec(kind="sync", style=style, sema_addr=0x0,
                            work_addr=0x100 + 0x40 * i, iterations=6,
                            work_ops=3),
            )
        )
    builder.add_initiator(
        InitiatorSpec(
            "bystander", "BVCI",
            TrafficSpec(kind="scripted",
                        intents=[make_read(0x200 + 4 * i) for i in range(40)]),
        )
    )
    builder.add_target(TargetSpec("sema", size=0x1000))
    builder.add_target(TargetSpec("other", size=0x1000))
    return builder.build()


def run(style):
    soc = sync_soc(style)
    cycles = soc.run_to_completion(max_cycles=500_000)
    sections = sum(
        soc.masters[f"sync{i}"].traffic.sections_completed for i in range(2)
    )
    retries = sum(
        getattr(soc.masters[f"sync{i}"].traffic, "retries", 0)
        for i in range(2)
    )
    lock_stalls = (
        soc.fabric.total_lock_stall_cycles()
        + soc.target_nius["sema"].lock_blocked_cycles
    )
    return {
        "cycles": cycles,
        "sections": sections,
        "retries": retries,
        "bystander_mean": soc.master_latency("bystander")["mean"],
        "bystander_p95": soc.master_latency("bystander")["p95"],
        "lock_stalls": lock_stalls,
    }


def test_e3_lock_vs_exclusive(benchmark, heading):
    heading("E3: blocking LOCK vs non-blocking exclusive synchronization")
    lock = run("lock")
    excl = run("excl")
    print(f"{'style':<8}{'cycles':>8}{'sections':>10}{'retries':>9}"
          f"{'bystander mean':>16}{'p95':>7}{'lock stalls':>13}")
    for label, r in (("lock", lock), ("excl", excl)):
        print(f"{label:<8}{r['cycles']:>8}{r['sections']:>10}"
              f"{r['retries']:>9}{r['bystander_mean']:>16.1f}"
              f"{r['bystander_p95']:>7.0f}{r['lock_stalls']:>13}")

    # Both styles synchronize correctly.
    assert lock["sections"] == excl["sections"] == 12
    # The lock family leaks into transport: it stalls unrelated traffic.
    assert lock["lock_stalls"] > 0
    assert excl["lock_stalls"] == 0
    assert excl["bystander_mean"] <= lock["bystander_mean"]

    benchmark.extra_info.update(lock=lock, excl=excl)
    benchmark(lambda: run("excl"))


def test_e3_exclusive_scales_with_contention(benchmark, heading):
    heading("E3b: exclusive-access retry behaviour under contention")
    print(f"{'contenders':>11}{'sections':>10}{'retries':>9}{'cycles':>9}")
    for contenders in (1, 2, 4):
        builder = SocBuilder()
        for i in range(contenders):
            builder.add_initiator(
                InitiatorSpec(
                    f"sync{i}", "AXI",
                    TrafficSpec(kind="sync", style="excl", sema_addr=0x0,
                                work_addr=0x100 + 0x40 * i, iterations=4),
                )
            )
        builder.add_target(TargetSpec("sema", size=0x1000))
        soc = builder.build()
        cycles = soc.run_to_completion(max_cycles=500_000)
        sections = sum(
            soc.masters[f"sync{i}"].traffic.sections_completed
            for i in range(contenders)
        )
        retries = sum(
            soc.masters[f"sync{i}"].traffic.retries
            for i in range(contenders)
        )
        print(f"{contenders:>11}{sections:>10}{retries:>9}{cycles:>9}")
        assert sections == 4 * contenders  # progress guaranteed
    benchmark(lambda: run("lock"))


def naive_accept_requests(niu, cycle):
    """The target NIU's request FIFO as the paper's §3 argument has it:
    serve the head packet or block on it.  ``TargetNiu`` parks a
    lock-blocked head aside instead, which is a transport-free fix of
    its own; the ablation swaps this in for that, here and nowhere
    else."""
    queue = niu._req_packets
    if not queue:
        return
    packet = queue.peek()
    if niu.locks is not None and not niu.locks.may_proceed(packet.mst_addr):
        niu.lock_blocked_cycles += 1
        return
    if niu._serve_packet(packet, cycle):
        queue.pop()


def test_e3_ablation_lock_implementation(benchmark, heading, monkeypatch):
    """E3c ablation: where should LOCK semantics live?

    (a) transport-level port locking (the Arteris choice — "switches take
        specific decisions when they see LOCK-related packets", §3), vs
    (b) NIU-only serialization (the target NIU's lock manager alone).

    Both arms run against the naive target request FIFO (one queue,
    served head first, no park-aside).  The ablation shows why the
    paper's target, which had that FIFO, needed LOCK in the transport
    level: with NIU-only locking, a contender's stalled READEX sits at
    the head of the target's single request FIFO and head-of-line-blocks
    the lock **holder's** own release write queued behind it — classic
    deadlock.  Transport-level locking avoids it because a switch's
    per-input arbitration lets the holder's packets overtake the stalled
    contender on a different input port.

    It does not show that no NIU could do without transport LOCK:
    :class:`~repro.niu.base.TargetNiu`'s park-aside, which this bench
    patches out, sets a blocked request aside so the holder's release
    passes it, and is itself an NIU-only cure for the same deadlock.
    """
    heading("E3c: ablation — transport-level LOCK vs NIU-only serialization")
    monkeypatch.setattr(TargetNiu, "_accept_requests", naive_accept_requests)
    # (a) transport + NIU: completes.
    soc = sync_soc("lock", transport_lock_support=None)
    cycles = soc.run_to_completion(max_cycles=500_000)
    sections = sum(
        soc.masters[f"sync{i}"].traffic.sections_completed for i in range(2)
    )
    print(f"{'transport+NIU':<16}{cycles:>8} cycles  sections={sections}  "
          f"fabric stalls={soc.fabric.total_lock_stall_cycles()}")
    assert sections == 12

    # (b) NIU-only: deadlocks under contention (bounded run raises).
    soc2 = sync_soc("lock", transport_lock_support=False)
    with pytest.raises(WorkloadStallError):
        soc2.run_to_completion(max_cycles=30_000)
    holder = soc2.target_nius["sema"].locks.holder
    blocked = soc2.target_nius["sema"].lock_blocked_cycles
    print(f"{'NIU-only':<16}DEADLOCK after 30k cycles: lock held by "
          f"initiator {holder}, contender head-of-line-blocks the "
          f"holder's release ({blocked} blocked cycles)")
    assert holder is not None  # lock stuck forever
    assert blocked > 0
    print()
    print("=> reproduces paper §3: behind a single target request FIFO, "
          "READEX/LOCK must impact the transport level (an NIU that parks "
          "blocked requests aside is the other cure).")
    benchmark(lambda: sync_soc("lock")
              .run_to_completion(max_cycles=500_000))
