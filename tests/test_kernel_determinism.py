"""Activity-driven kernel vs brute-force reference: byte-identical runs.

The activity scheduler (wake/next_event_cycle, dirty-queue commits,
router early exits) is only legal if it is an *optimisation*: every
seeded workload must produce exactly the same per-component stats, queue
counters and trace sequence as ``Simulator(strict=True)``, which ticks
every component and commits every queue each cycle.  These tests pin
that contract; the recipes, the runs and the compare are
``differential.py``'s.
"""

import pytest

from differential import (
    RECIPES,
    WINDOWS,
    assert_same,
    buffer_walk,
    build,
    observe,
    run,
)
from repro.sim.kernel import Simulator


@pytest.mark.parametrize("recipe", WINDOWS)
def test_activity_kernel_matches_reference(recipe):
    cycles = WINDOWS[recipe]
    assert_same(run(recipe, cycles, "activity"), run(recipe, cycles, "strict"))


def test_a_build_does_not_depend_on_what_ran_before_it():
    """A SoC draws its transaction and packet ids from its own simulator:
    built after another SoC has run in the same process, and with
    nothing reset in between, ``mixed-protocols`` runs to the very
    fingerprint of a fresh build (its trace names the ids)."""
    cycles = WINDOWS["mixed-protocols"]
    RECIPES["legacy-lock"](False).run(300)
    soc = RECIPES["mixed-protocols"](False)
    soc.run(cycles)
    assert_same(observe(soc), run("mixed-protocols", cycles))


def test_gap_waiting_ejection_port_is_dormant():
    """An ejection port whose reorder buffer only waits on a gap has
    nothing to do until the gap-filling packet's flits arrive, and those
    push-wake it: it leaves the schedule while still holding packets.
    (On this SoC the first such retire sweep lands at cycle 2,215; the
    ports are busy with flits before that.)"""
    soc = build("adaptive-hotspot")
    eports = [
        eport
        for plane in soc.fabric._planes
        for eport in plane.ejection_ports.values()
    ]
    dormant_holding = 0
    for _ in range(2500):
        soc.sim.step()
        dormant_holding += sum(
            1 for eport in eports if eport._rob_count and not eport._scheduled
        )
    assert sum(eport.packets_resequenced for eport in eports) > 0
    assert dormant_holding > 0
    assert soc.ordering_violations() == 0


def test_limit_blocked_masters_do_not_tick():
    """Count guard (exact, noise-free) on the parking of limit-blocked
    masters: on the saturated torus every master spends most cycles
    refused by its own outstanding limit, and must be off the run list
    for them — not merely refused faster."""
    soc = build("vc-torus-saturated")
    ticks = dict.fromkeys(soc.masters, 0)
    for name, master in soc.masters.items():
        def counted(cycle, _name=name, _tick=master.tick):
            ticks[_name] += 1
            _tick(cycle)
        master.tick = counted
    soc.run(1000)
    assert soc.total_completed() > 300
    assert max(ticks.values()) < 500, ticks


def test_activity_kernel_completes_all_traffic():
    soc = build("mixed-protocols")
    soc.run_to_completion()
    assert all(m.finished() for m in soc.masters.values())
    # Once drained (and past a retire sweep) the whole SoC leaves the
    # schedule: quiescent cycles cost no component ticks at all.
    soc.run(16)
    assert soc.sim.active_count == 0
    assert len(soc.sim.components) > 0


def test_gals_soc_drains_and_retires():
    """Serialized links, CDC synchronizers and domain-gated components
    all honour the wake protocol: traffic completes and the quiescent
    GALS SoC leaves the schedule entirely."""
    soc = build("gals-serialized-links")
    soc.run_to_completion(max_cycles=400_000)
    assert all(m.finished() for m in soc.masters.values())
    assert soc.fabric.physical_links  # the phys path was actually built
    assert all(buffer_walk(plane) for plane in soc.fabric._planes)
    soc.run(16)
    assert soc.sim.active_count == 0


def test_vc_gals_soc_drains_and_retires():
    """VC fabrics obey the wake protocol too: per-VC router state,
    VC-multiplexed links and their per-VC credits all go quiet, and the
    drained SoC leaves the schedule (active_count == 0)."""
    soc = build("vc-dateline-gals")
    soc.run_to_completion(max_cycles=400_000)
    assert all(m.finished() for m in soc.masters.values())
    assert soc.fabric.physical_links
    assert all(buffer_walk(plane) for plane in soc.fabric._planes)
    for link in soc.fabric.physical_links:
        assert link._credits == link._capacities
    soc.run(16)
    assert soc.sim.active_count == 0


def test_adaptive_soc_drains_and_retires():
    """Adaptive fabrics obey the wake protocol: congestion-scored VC
    allocation, escape-network fallbacks and the ejection resequencing
    buffers all go quiet, and the drained SoC leaves the schedule."""
    soc = build("adaptive-escape-gals")
    soc.run_to_completion(max_cycles=400_000)
    assert all(m.finished() for m in soc.masters.values())
    assert soc.ordering_violations() == 0
    assert all(buffer_walk(plane) for plane in soc.fabric._planes)
    soc.run(16)
    assert soc.sim.active_count == 0


def test_strict_env_flag(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_STRICT", "1")
    assert Simulator().strict is True
    monkeypatch.setenv("REPRO_SIM_STRICT", "0")
    assert Simulator().strict is False
    monkeypatch.delenv("REPRO_SIM_STRICT")
    assert Simulator().strict is False
