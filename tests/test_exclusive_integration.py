"""Synchronization styles end-to-end (paper §3, benchmark E3).

Lock-based (blocking) and exclusive-based (non-blocking) critical
sections both work; locks block unrelated traffic, exclusives don't.
"""


from repro.core.transaction import make_read
from repro.ip import TrafficSpec
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec


def sync_soc(style, contenders=2, iterations=3, bystander=False):
    builder = SocBuilder()
    protocol = "AHB" if style == "lock" else "AXI"
    for i in range(contenders):
        builder.add_initiator(
            InitiatorSpec(
                f"sync{i}",
                protocol,
                TrafficSpec(
                    kind="sync",
                    style=style,
                    sema_addr=0x0,
                    work_addr=0x100 + 0x40 * i,
                    iterations=iterations,
                ),
            )
        )
    if bystander:
        builder.add_initiator(
            InitiatorSpec(
                "bystander", "BVCI",
                TrafficSpec(kind="scripted",
                            intents=[make_read(0x1000 + 0x10 * i)
                                     for i in range(20)]),
            )
        )
    builder.add_target(TargetSpec("sema", size=0x1000))
    builder.add_target(TargetSpec("other", size=0x1000))
    return builder.build()


class TestLockStyle:
    def test_critical_sections_complete(self):
        soc = sync_soc("lock", contenders=2, iterations=3)
        soc.run_to_completion(max_cycles=200_000)
        for i in range(2):
            workload = soc.masters[f"sync{i}"].traffic
            assert workload.sections_completed == 3

    def test_lock_released_at_end(self):
        soc = sync_soc("lock")
        soc.run_to_completion(max_cycles=200_000)
        locks = soc.target_nius["sema"].locks
        assert locks is not None
        assert locks.holder is None
        assert sum(  # 2 masters x 3 locked sections
            soc.masters[f"sync{i}"].traffic.sections_completed for i in range(2)
        ) == 6

    def test_lock_blocks_target_for_others(self):
        soc = sync_soc("lock", contenders=2)
        soc.run_to_completion(max_cycles=200_000)
        assert soc.target_nius["sema"].lock_blocked_cycles > 0


class TestExclStyle:
    def test_critical_sections_complete(self):
        soc = sync_soc("excl", contenders=2, iterations=3)
        soc.run_to_completion(max_cycles=200_000)
        for i in range(2):
            workload = soc.masters[f"sync{i}"].traffic
            assert workload.sections_completed == 3

    def test_monitor_sees_traffic(self):
        soc = sync_soc("excl", contenders=2, iterations=3)
        soc.run_to_completion(max_cycles=200_000)
        monitor = soc.target_nius["sema"].monitor
        assert monitor is not None
        assert monitor.grants >= 6  # at least one EXOKAY per section
        assert monitor.live_reservations == 0

    def test_contention_causes_retries_not_deadlock(self):
        soc = sync_soc("excl", contenders=4, iterations=2)
        soc.run_to_completion(max_cycles=400_000)
        total_sections = sum(
            soc.masters[f"sync{i}"].traffic.sections_completed
            for i in range(4)
        )
        assert total_sections == 8


class TestBlockingContrast:
    """The paper's reason for exclusive accesses: they are non-blocking."""

    def test_lock_style_stalls_fabric_excl_does_not(self):
        lock_soc = sync_soc("lock", contenders=2, iterations=3)
        lock_soc.run_to_completion(max_cycles=400_000)
        excl_soc = sync_soc("excl", contenders=2, iterations=3)
        excl_soc.run_to_completion(max_cycles=400_000)
        lock_stalls = (
            lock_soc.fabric.total_lock_stall_cycles()
            + lock_soc.target_nius["sema"].lock_blocked_cycles
        )
        excl_stalls = (
            excl_soc.fabric.total_lock_stall_cycles()
            + excl_soc.target_nius["sema"].lock_blocked_cycles
        )
        assert lock_stalls > 0
        assert excl_stalls == 0
