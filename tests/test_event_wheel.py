"""Event-wheel kernel: next-event cycle skipping, parking and wakes.

The activity contract (:meth:`Component.next_event_cycle`) is only
legal if it is invisible:
every observable — what components do, when queue items move, every stat
— must be byte-identical to the strict tick-everything kernel.  These
tests pin the kernel mechanics (skip targets, parking, stale-entry
validation, wake-during-a-skipped-window rewinds, clock-edge alignment)
on purpose-built components, and pin the router's body-flit fast path
against its slow-path reference on full SoCs.
"""

import pytest

from repro.ip import TrafficSpec
from repro.sim.component import Component
from repro.sim.fingerprint import fingerprint_soc
from repro.sim.kernel import PARK_HORIZON, Simulator
from repro.sim.trace import Tracer
from repro.phys.clocking import ClockDomain
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec

from differential import WINDOWS, assert_same, build, run


class PulseSource(Component):
    """Declares its next event precisely: pushes once at ``fire_at``."""

    def __init__(self, name, queue, fire_at):
        super().__init__(name)
        self.queue = queue
        self.fire_at = fire_at
        self.fired = False
        self.tick_cycles = []

    def next_event_cycle(self, now):
        if self.fired:
            return None
        return self.fire_at if self.fire_at > now else now

    def tick(self, cycle):
        self.tick_cycles.append(cycle)
        if not self.fired and cycle >= self.fire_at:
            self.queue.push(cycle)
            self.fired = True


class RecordingConsumer(Component):
    """Sleeps on an empty queue; records exactly when items arrive."""

    def __init__(self, name, queue):
        super().__init__(name)
        self.queue = queue
        queue.wake_on_push(self)
        self.received = []

    def next_event_cycle(self, now):
        return now if self.queue else None

    def tick(self, cycle):
        if self.queue:
            self.received.append((cycle, self.queue.pop()))


class GatedTicker(Component):
    """Plain component (default contract: every edge of its clock)."""

    def __init__(self, name):
        super().__init__(name)
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


def _pulse_sim(strict, fire_at=200, window=400):
    sim = Simulator(strict=strict)
    q = sim.new_queue("q", capacity=4)
    src = sim.add(PulseSource("src", q, fire_at))
    dst = sim.add(RecordingConsumer("dst", q))
    sim.run(window)
    return sim, src, dst


class TestCycleSkipping:
    def test_skip_is_observably_identical_to_strict(self):
        __, __, strict_dst = _pulse_sim(strict=True)
        sim, __, dst = _pulse_sim(strict=False)
        assert dst.received == strict_dst.received
        # The pulse fires at 200, is committed the same cycle and
        # consumed at 201 — everything else is provably dead time.
        assert dst.received == [(201, 200)]
        assert sim.cycles_skipped > 300

    def test_empty_schedule_skips_to_the_end(self):
        sim = Simulator()
        sim.run(5000)
        assert sim.cycle == 5000
        assert sim.cycles_skipped >= 4999

    def test_run_boundary_clamps_the_skip(self):
        sim = Simulator()
        q = sim.new_queue("q", capacity=4)
        sim.add(PulseSource("src", q, fire_at=1000))
        sim.run(10)  # skip must stop at the run() boundary...
        assert sim.cycle == 10
        sim.run(2000)  # ...and the source must still fire on time
        assert q.total_pushed == 1

    def test_component_added_after_skip_is_scheduled(self):
        sim = Simulator()
        sim.run(50)
        t = sim.add(GatedTicker("late"))
        sim.run(3)
        assert t.ticks == [50, 51, 52]

    def test_unknown_component_disables_skipping(self):
        sim = Simulator()
        t = sim.add(GatedTicker("t"))  # default contract, divisor 1
        sim.run(40)
        assert t.ticks == list(range(40))
        assert sim.cycles_skipped == 0

    def test_gated_component_skips_to_its_edges(self):
        """A default-contract component on a slow clock domain still
        enables skipping: its next possible action is its next clock
        edge, and ticks land exactly on the edges — identical to the
        strict kernel's domain gating."""
        edges = None
        for strict in (True, False):
            sim = Simulator(strict=strict)
            t = sim.add(GatedTicker("t"))
            t.set_clock_domain(ClockDomain("slow", divisor=5, phase=2))
            sim.run(31)
            if edges is None:
                edges = t.ticks
            assert t.ticks == edges
        assert edges == [2, 7, 12, 17, 22, 27]
        assert sim.cycles_skipped > 0  # the non-edge cycles were skipped

        # A divisor of at least PARK_HORIZON beside a hot component (no
        # whole-kernel skip): the retire sweep parks the default
        # contract's ``now``, aligned to the next edge, on the wheel.
        for strict in (True, False):
            sim = Simulator(strict=strict)
            t = sim.add(GatedTicker("t"))
            t.set_clock_domain(ClockDomain("slow", divisor=16, phase=3))
            hot = sim.add(GatedTicker("hot"))
            sim.run(70)
            assert t.ticks == [3, 19, 35, 51, 67]
            assert hot.ticks == list(range(70))
        assert sim.cycles_skipped == 0
        assert sim.wheel_events > 0  # it parked between edges


class TestTimingWheelParking:
    def test_far_event_parks_on_the_wheel(self):
        sim = Simulator()
        q = sim.new_queue("q", capacity=4)
        src = sim.add(PulseSource("src", q, fire_at=300))
        sim.add(GatedTicker("hot"))  # keeps the kernel stepping
        sim.run(20)  # past the first retire sweep
        assert src._parked_until == 300
        assert sim.wheel_events >= 1
        sim.run(300)
        assert src.fired
        assert q.total_pushed == 1

    def test_wake_during_parked_window_rewinds_safely(self):
        """A component parked far in the future must honour an earlier
        queue event: the wake re-schedules it immediately and its stale
        wheel slot is dropped, not double-fired."""
        sim = Simulator()
        trigger = sim.new_queue("trigger", capacity=4)
        out = sim.new_queue("out", capacity=4)

        class ParkedWorker(PulseSource):
            # Fires at fire_at *or* whenever the trigger queue delivers.
            def __init__(self, name, queue, fire_at, trigger):
                super().__init__(name, queue, fire_at)
                self.trigger = trigger
                trigger.wake_on_push(self)

            def next_event_cycle(self, now):
                if self.trigger:
                    return now
                return super().next_event_cycle(now)

            def tick(self, cycle):
                self.tick_cycles.append(cycle)
                if not self.fired and (
                    self.trigger or cycle >= self.fire_at
                ):
                    if self.trigger:
                        self.trigger.pop()
                    self.queue.push(cycle)
                    self.fired = True

        worker = sim.add(ParkedWorker("w", out, 500, trigger))
        sim.add(GatedTicker("hot"))
        sim.run(40)
        assert worker._parked_until == 500  # parked by the sweep
        trigger.push("now!")  # external event inside the parked window
        sim.run(10)
        # Woken at the commit, fired at the next cycle — 460 cycles
        # before its wheel slot.
        assert worker.fired
        assert out.total_pushed == 1
        assert worker._parked_until == -1
        sim.run(600)  # the stale slot at 500 must not re-fire anything
        assert out.total_pushed == 1

    def test_reparked_at_the_same_slot_ticks_there_once(self):
        """Parked at 500, woken early without firing, parked at 500
        again: the heap holds two (500, index) entries, and the second
        pop finds the component already scheduled and drops it."""
        sim = Simulator()
        q = sim.new_queue("q", capacity=4)
        src = sim.add(PulseSource("src", q, fire_at=500))
        sim.add(GatedTicker("hot"))
        sim.run(40)
        assert src._parked_until == 500
        assert sim.wheel_events == 1
        src.wake()  # nothing to do yet: the next sweep parks it again
        sim.run(20)
        assert src._parked_until == 500
        assert sim.wheel_events == 2
        assert sorted(sim._parked) == [(500, src._sched_index)] * 2
        sim.run(600)
        assert src.tick_cycles.count(500) == 1
        assert q.total_pushed == 1
        assert sim.wheel_events == 2
        assert sim._parked == []

    def test_park_horizon_keeps_near_events_in_the_run_list(self):
        sim = Simulator()
        q = sim.new_queue("q", capacity=4)
        # Fires 2 cycles after the first sweep: too close to park.
        src = sim.add(PulseSource("src", q, fire_at=PARK_HORIZON + 2))
        sim.add(GatedTicker("hot"))
        sim.run(PARK_HORIZON)
        assert src._parked_until == -1
        sim.run(PARK_HORIZON)
        assert src.fired


class TestSkippingMatchesStrictOnSocs:
    """The determinism suite's fingerprints already compare the skipping
    kernel against strict byte-for-byte; these pin that the comparison
    is not vacuous — the skipping machinery really engages on the GALS /
    VC / adaptive SoCs — and that drained SoCs skip to the horizon."""

    @pytest.mark.parametrize(
        "recipe",
        ["gals-serialized-links", "vc-dateline-gals", "adaptive-escape-gals"],
        ids=["gals", "vc-dateline-gals", "adaptive-escape-gals"],
    )
    def test_skipping_engages(self, recipe):
        assert run(recipe, WINDOWS[recipe]).cycles_skipped > 0

    def test_strict_kernel_never_skips(self):
        recipe = "gals-serialized-links"
        assert run(recipe, WINDOWS[recipe], "strict").cycles_skipped == 0

    def test_drained_soc_skips_nearly_everything(self):
        soc = build("mixed-protocols")
        soc.run_to_completion()
        drained_at = soc.sim.cycle
        soc.run(50_000)
        skipped_after = soc.sim.cycles_skipped
        assert soc.sim.cycle == drained_at + 50_000
        # Post-drain cycles are free: virtually the whole stretch is
        # jumped over (a handful of steps may run at the boundary).
        assert skipped_after >= 49_900


class TestTimetabledEventsOnSocs:
    """A Poisson source's next arrival is a timetabled event: its
    master's ``next_event_cycle`` names the arrival cycle, so the wheel
    may skip any amount of quiet time but must land on that cycle
    exactly, even with the whole SoC otherwise drained."""

    @staticmethod
    def _sparse_soc(strict):
        builder = SocBuilder(trace=Tracer(enabled=True), strict_kernel=strict)
        builder.add_initiator(InitiatorSpec(
            "cpu", "AXI",
            TrafficSpec(kind="poisson", pairs=[(0, 0x1000)], count=4, seed=7,
                        rate=0.002),
        ))
        builder.add_target(
            TargetSpec("mem", size=0x1000, read_latency=2, write_latency=1)
        )
        return builder.build()

    def test_arrivals_in_quiet_windows_land_exactly(self):
        issues = {}
        for kernel, strict in (("activity", False), ("strict", True)):
            soc = self._sparse_soc(strict)
            master = soc.masters["cpu"]
            ticked, issued = [], []

            def recording(cycle, _tick=master.tick):
                before = master.issued
                _tick(cycle)
                ticked.append(cycle)
                if master.issued > before:
                    issued.append(cycle)

            master.tick = recording
            soc.run(2000)  # run() skips; run_to_completion steps every cycle
            issues[kernel] = issued
            if kernel == "activity":
                activity, activity_ticks = soc, ticked
            else:
                strict_soc = soc
        assert len(issues["activity"]) == 4
        assert issues["activity"] == issues["strict"]
        assert_same(fingerprint_soc(activity), fingerprint_soc(strict_soc))
        # Every arrival but the first follows a quiet stretch the wheel
        # skipped: the master slept through the cycle before it.
        assert activity.sim.cycles_skipped > 0
        for cycle in issues["activity"][1:]:
            assert cycle - 1 not in activity_ticks
        assert len(activity_ticks) < activity.sim.cycle // 4


class TestBodyFlitFastPath:
    """The streaming fast path (held grants + sole-candidate bypass +
    solo ticks) must produce the same flit interleaving as running the
    reference arbitration for every flit — pinned by full-fingerprint
    equality, which covers queue counters, traces, per-router stats and
    memory images, cycle for cycle.  The flag is cleared *after*
    construction, so the router must read it in the tick."""

    @pytest.mark.parametrize(
        "recipe",
        [
            "mixed-protocols", "vc-dateline-gals", "adaptive-escape-gals",
            # READEX ... STORE_COND_LOCKED: the lock pair, whose
            # packets set and clear port locks.
            "legacy-lock",
            "vc-torus-saturated",
        ],
        ids=[
            "single-vc", "vc-dateline-gals", "adaptive-escape-gals",
            "legacy-lock", "vc-torus-saturated",
        ],
    )
    def test_fast_path_matches_slow_path(self, recipe):
        cycles = WINDOWS[recipe]
        assert_same(run(recipe, cycles, fast_path=False), run(recipe, cycles))

    def test_fast_path_is_on_by_default(self):
        soc = build("mixed-protocols")
        routers = [
            r
            for plane in soc.fabric._planes
            for r in plane.routers.values()
        ]
        assert routers and all(r.stream_fast_path for r in routers)
