"""The cycle-based simulation kernel (activity-driven, event-skipping)."""

from __future__ import annotations

import os
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.component import Component
from repro.sim.queue import SimQueue
from repro.sim.snapshot import SnapshotMismatchError, Snapshottable
from repro.sim.stats import StatsRegistry
from repro.sim.trace import Tracer


class SimulationError(RuntimeError):
    """Raised for kernel-level failures (deadlock, double registration...).

    Subsystems raise *named* subclasses for conditions that deserve a
    distinct ``except`` target — e.g.
    :class:`repro.transport.faults.FabricPartitionError` when a fault
    schedule severs all routes to a destination mid-run.  Catching
    ``SimulationError`` still catches them all.
    """


class RunBudgetExceededError(SimulationError):
    """:meth:`Simulator.run_until` spent its ``max_cycles`` budget before
    its predicate held.

    A *named* subclass so callers that can diagnose the stall (e.g.
    :meth:`repro.soc.builder.NocSoc.run_to_completion` asking each
    workload what it is blocked on) can tell a plain budget timeout from
    the other :class:`SimulationError` conditions — a partition watchdog
    firing, say — which they must not mask.
    """


#: Registration-order sort key for the wake merge (C-level accessor: the
#: merge sorts on every cycle that woke anything).
_sched_key = attrgetter("_sched_index")


#: Park a component on the wheel only when its next event is at least this
#: many cycles out; nearer events stay in the run list (the per-cycle
#: no-op ticks are cheaper than wheel churn) and are handled by the
#: whole-kernel skip in :meth:`Simulator.run` when the fabric is quiet.
PARK_HORIZON = 8


class TimingWheel:
    """Hierarchical re-activation schedule for parked components.

    Two levels: a min-heap of distinct event cycles (the coarse level —
    one entry per cycle that has sleepers) over per-cycle buckets of
    components (the fine level).  ``schedule`` is O(log n) in the number
    of *distinct* pending cycles, the due-check the kernel runs every
    cycle is a single compare against the heap top, and ``next_cycle``
    (what the skip logic needs) is O(1).

    Entries can go stale: a parked component woken early by a queue event
    re-enters the schedule through the normal wake path and clears its
    ``_parked_until`` stamp, so the wheel validates each entry against
    that stamp when its slot comes due and silently drops mismatches —
    this is what makes wakes during a skipped window rewind-safe.
    """

    __slots__ = ("_buckets", "_heap", "events_scheduled", "events_fired")

    def __init__(self) -> None:
        self._buckets: Dict[int, List[Component]] = {}
        self._heap: List[int] = []
        self.events_scheduled = 0
        self.events_fired = 0

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def schedule(self, cycle: int, component: Component) -> None:
        """Park ``component`` until ``cycle`` (caller stamps it)."""
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [component]
            heappush(self._heap, cycle)
        else:
            bucket.append(component)
        self.events_scheduled += 1

    def next_cycle(self) -> Optional[int]:
        """Earliest cycle holding parked components (None when empty)."""
        return self._heap[0] if self._heap else None

    def pop_due(self, cycle: int) -> List[Tuple[int, Component]]:
        """Drain every slot at or before ``cycle`` (stale entries too —
        the caller validates against ``_parked_until``)."""
        due: List[Tuple[int, Component]] = []
        heap = self._heap
        while heap and heap[0] <= cycle:
            slot = heappop(heap)
            for component in self._buckets.pop(slot):
                due.append((slot, component))
        return due


class Simulator(Snapshottable):
    """Owns components and queues and advances them cycle by cycle.

    The kernel is two-phase: every *active* component's :meth:`tick` runs
    first, then every *dirty* queue commits its staged items.  A queue
    push staged in cycle *n* is therefore consumer-visible in cycle
    *n + 1*.

    Activity-driven scheduling
    --------------------------
    Instead of ticking every registered component each cycle, the kernel
    keeps an **active set**.  Components are active from registration and
    leave the set by one contract, :meth:`Component.next_event_cycle`:
    ``None`` (dormant) deschedules the component, a cycle at least
    ``PARK_HORIZON`` away parks it on the timing wheel until then, and
    anything nearer — the default answers ``now`` — keeps it ticking.  A
    descheduled component re-enters the set only when
    :meth:`Component.wake` is called — normally by a :class:`SimQueue`
    it registered with (``wake_on_push`` fires at commit time, when
    items become visible; ``wake_on_pop`` fires when space frees).
    Active components always tick in registration order, so the
    schedule is deterministic.

    Queue commits follow the same discipline: a push puts the queue on a
    per-cycle *dirty list* and only dirty queues are committed, so a
    quiescent fabric costs neither component ticks nor queue sweeps.

    Clock domains
    -------------
    Components placed in a GALS clock domain via
    :meth:`Component.set_clock_domain` are ticked only on that domain's
    edges (``cycle % divisor == phase``).  The gate is applied identically
    on the activity-driven path and the strict reference path, so domain
    membership composes with the active-set schedule without perturbing
    determinism: a dormant slow-domain component is retired and woken
    like any other, and merely skips the off-edge cycles while scheduled.

    ``strict=True`` (or the ``REPRO_SIM_STRICT=1`` environment variable)
    selects the brute-force reference path — tick every component, commit
    every queue — which must produce byte-identical stats and traces;
    tests assert exactly that.

    Parameters
    ----------
    trace:
        Optional :class:`Tracer`; if omitted a disabled tracer is created
        so components can log unconditionally.
    strict:
        ``True`` forces the tick-everything reference kernel; ``None``
        (default) consults ``REPRO_SIM_STRICT``.
    """

    def __init__(
        self, trace: Optional[Tracer] = None, strict: Optional[bool] = None
    ) -> None:
        if strict is None:
            flag = os.environ.get("REPRO_SIM_STRICT", "")
            strict = flag.strip().lower() not in ("", "0", "false", "no", "off")
        self.strict = bool(strict)
        self.cycle = 0
        self.stats = StatsRegistry()
        self.trace = trace if trace is not None else Tracer(enabled=False)
        self._components: List[Component] = []
        self._component_names: Dict[str, Component] = {}
        self._queues: List[SimQueue] = []
        self._queue_names: Dict[str, SimQueue] = {}
        # Activity scheduler state: the run list holds this cycle's active
        # components in registration order; wakes accumulate between steps
        # and merge in at the top of the next one.
        self._run_list: List[Component] = []
        self._wakes: List[Component] = []
        self._dirty_queues: List[SimQueue] = []
        # Idle components are retired from the run list every
        # (RETIRE_EVERY = mask + 1) cycles; must be a power of two - 1.
        self._retire_mask = 7
        # Event-wheel state: components whose next event is far away are
        # parked here by the retire sweep and re-activated when their
        # slot comes due (or earlier, by a wake).  run() additionally
        # skips `now` straight past provably dead stretches.
        self._wheel = TimingWheel()
        self._quiet_step = True
        #: Cycles advanced without executing a kernel step (bench metric).
        self.cycles_skipped = 0

    @property
    def wheel_events(self) -> int:
        """Timing-wheel re-activations scheduled so far (bench metric)."""
        return self._wheel.events_scheduled

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def add(self, component: Component) -> Component:
        """Register a component; returns it for chaining."""
        if component.name in self._component_names:
            raise SimulationError(f"duplicate component name {component.name!r}")
        component.bind(self)
        component._sched_index = len(self._components)
        self._components.append(component)
        self._component_names[component.name] = component
        component._scheduled = True
        self._wakes.append(component)
        return component

    def add_queue(self, queue: SimQueue) -> SimQueue:
        """Register a queue so the kernel commits it when dirty."""
        if queue.name in self._queue_names:
            raise SimulationError(f"duplicate queue name {queue.name!r}")
        self._queues.append(queue)
        self._queue_names[queue.name] = queue
        queue._kernel = self
        if queue._dirty:  # registered with items already staged
            self._dirty_queues.append(queue)
        return queue

    def new_queue(self, name: str, capacity: Optional[int] = 4) -> SimQueue:
        """Create **and** register a queue in one call."""
        return self.add_queue(SimQueue(name, capacity))

    def component(self, name: str) -> Component:
        return self._component_names[name]

    def queue(self, name: str) -> SimQueue:
        return self._queue_names[name]

    @property
    def components(self) -> List[Component]:
        return list(self._components)

    @property
    def active_count(self) -> int:
        """Components scheduled to tick next cycle (bench introspection)."""
        if self.strict:
            return len(self._components)
        return len(self._run_list) + len(self._wakes)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """Advance the simulation by exactly one cycle."""
        if self.strict:
            self._step_strict()
            return
        cycle = self.cycle
        # Re-activate parked components whose wheel slot is due.  Entries
        # are validated against the park stamp: a component woken early
        # (or re-parked elsewhere) left a stale entry behind, which is
        # simply dropped.
        wheel = self._wheel
        if wheel._heap and wheel._heap[0] <= cycle:
            wakes = self._wakes
            for slot, component in wheel.pop_due(cycle):
                if component._parked_until == slot and not component._scheduled:
                    component._parked_until = -1
                    component._scheduled = True
                    wheel.events_fired += 1
                    wakes.append(component)
        # Merge components woken since the last step (or freshly added).
        wakes = self._wakes
        run_list = self._run_list
        if wakes:
            run_list.extend(wakes)
            wakes.clear()
            run_list.sort(key=_sched_key)
        for component in run_list:
            # Clock-domain gate: divisor 1 (the kernel reference clock)
            # short-circuits, so single-domain builds pay one compare.
            divisor = component._clk_divisor
            if divisor == 1 or cycle % divisor == component._clk_phase:
                component.tick(cycle)
        # Commit only queues that staged something this cycle; commits
        # wake push-waiters, which lands them in _wakes for next cycle.
        # A cycle with no commits is *quiet*: nothing moved anywhere, so
        # it is a candidate for the time-skip scan in run() — gating the
        # scan on quietness keeps its cost off the busy-fabric path.
        dirty = self._dirty_queues
        if dirty:
            self._quiet_step = False
            for queue in dirty:
                if queue._dirty:
                    queue.commit()
            dirty.clear()
        else:
            self._quiet_step = True
        # Retire dormant components (post-commit, so anything that just
        # became visible keeps its consumer scheduled).  The sweep runs
        # every RETIRE_EVERY cycles: retirement is purely an optimisation
        # (extra ticks of a dormant component are no-ops), and sweeping
        # on a cadence keeps busy phases from paying a next-event call
        # per component per cycle while bursty traffic oscillates.  A
        # component whose next event, aligned to its clock edge, is at
        # least PARK_HORIZON out is parked on the timing wheel; a dormant
        # one (None) is simply descheduled and its wake registrations
        # bring it back.
        if cycle & self._retire_mask == self._retire_mask:
            now = cycle + 1
            wheel = self._wheel
            retained = []
            retain = retained.append
            for component in run_list:
                event = component.next_event_cycle(now)
                if event is None:
                    component._scheduled = False
                    continue
                divisor = component._clk_divisor
                if divisor != 1:
                    event += (component._clk_phase - event) % divisor
                if event >= now + PARK_HORIZON:
                    component._scheduled = False
                    component._parked_until = event
                    wheel.schedule(event, component)
                    continue
                retain(component)
            if len(retained) != len(run_list):
                self._run_list = retained
        self.cycle += 1

    def _step_strict(self) -> None:
        """Reference path: tick everything, commit everything."""
        cycle = self.cycle
        for component in self._components:
            divisor = component._clk_divisor
            if divisor == 1 or cycle % divisor == component._clk_phase:
                component.tick(cycle)
        for queue in self._queues:
            queue.commit()
        # Keep scheduler bookkeeping bounded; strict mode never prunes.
        self._wakes.clear()
        self._dirty_queues.clear()
        self.cycle += 1

    def _next_event_horizon(self, limit: int) -> int:
        """Earliest future cycle at which anything can happen, capped at
        ``limit``.

        Called between steps with no wakes and no dirty queues pending:
        every scheduled component is asked for its next event, aligned to
        its clock edge, the timing wheel contributes its earliest slot,
        and the minimum is where ``run`` may jump ``now`` to.  Any
        component that may act next cycle makes the answer ``self.cycle``
        (no skip) — the scan bails out on the first such component.
        """
        now = self.cycle
        horizon = limit
        heap = self._wheel._heap
        if heap:
            slot = heap[0]
            if slot <= now:
                return now
            if slot < horizon:
                horizon = slot
        run_list = self._run_list
        dormant = 0
        for component in run_list:
            event = component.next_event_cycle(now)
            if event is None:
                # Dormant until a wake: deschedule right here (the skip
                # would jump past the retire sweeps that would otherwise
                # prune it).  Only a completed scan commits this — an
                # early bail-out leaves the list untouched.
                component._scheduled = False
                dormant += 1
                continue
            divisor = component._clk_divisor
            if divisor != 1:
                event += (component._clk_phase - event) % divisor
            if event <= now:
                self._rearm_dormant(run_list, dormant)
                return now
            if event < horizon:
                horizon = event
        if dormant:
            self._run_list = [c for c in run_list if c._scheduled]
        return horizon

    @staticmethod
    def _rearm_dormant(run_list: List[Component], dormant: int) -> None:
        """Undo in-scan descheduling when the scan bails out early."""
        if dormant:
            for component in run_list:
                if not component._scheduled:
                    component._scheduled = True

    def run(self, cycles: int) -> int:
        """Run for ``cycles`` cycles; returns the new current cycle.

        On the activity kernel, stretches of provably dead time are
        skipped: whenever every scheduled component's next possible
        activity cycle lies in the future (and nothing was woken or
        staged), ``now`` advances straight to the earliest such event —
        see :meth:`Component.next_event_cycle` for why this is exact.
        The strict kernel executes every cycle, as always.
        """
        end = self.cycle + cycles
        if self.strict:
            while self.cycle < end:
                self._step_strict()
            return self.cycle
        while self.cycle < end:
            self.step()
            if self._wakes or not self._quiet_step or self.cycle >= end:
                continue
            target = self._next_event_horizon(end)
            if target > self.cycle:
                self.cycles_skipped += target - self.cycle
                self.cycle = target
        return self.cycle

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = 1_000_000,
    ) -> int:
        """Run until ``predicate()`` is true.

        The predicate is evaluated every cycle and the simulation never
        advances more than ``max_cycles`` cycles past the starting
        point.  Raises :class:`RunBudgetExceededError` if ``max_cycles``
        elapse first — the standard way benches and tests detect
        deadlock/livelock.
        """
        start = self.cycle
        while not predicate():
            if self.cycle - start >= max_cycles:
                raise RunBudgetExceededError(
                    f"run_until exceeded {max_cycles} cycles "
                    f"(started at {start}, now {self.cycle})"
                )
            self.step()
        return self.cycle

    # ------------------------------------------------------------------ #
    # state capture
    # ------------------------------------------------------------------ #
    def _snapshot_state(self) -> dict:
        """Everything that mutates as the simulation runs, keyed by name.

        Scheduler state is captured per component (scheduled flag, park
        stamp, and — when the component is itself :class:`Snapshottable`
        — its state envelope).  The run-list/wakes partition is *not*
        captured: :meth:`step` merges and sorts both by ``_sched_index``
        before ticking, so restore reconstructs the same effective
        schedule from the flags alone.  Wheel buckets are captured by
        component name, stale entries included, so the post-restore skip
        horizon is exactly the original's.
        """
        components = {}
        for component in self._components:
            entry: dict = {
                "scheduled": component._scheduled,
                "parked_until": component._parked_until,
            }
            if isinstance(component, Snapshottable):
                entry["state"] = component.snapshot()
            components[component.name] = entry
        queues = {queue.name: queue.snapshot() for queue in self._queues}
        wheel = self._wheel
        return {
            "cycle": self.cycle,
            "cycles_skipped": self.cycles_skipped,
            "quiet_step": self._quiet_step,
            "components": components,
            "queues": queues,
            "dirty_queues": [q.name for q in self._dirty_queues],
            "wheel": {
                "buckets": {
                    slot: [c.name for c in bucket]
                    for slot, bucket in wheel._buckets.items()
                },
                "events_scheduled": wheel.events_scheduled,
                "events_fired": wheel.events_fired,
            },
            "stats": self.stats.snapshot(),
            "trace": self.trace.snapshot(),
        }

    def _restore_state(self, state: dict) -> None:
        by_name = self._component_names
        saved_components = state["components"]
        unknown = set(saved_components) - set(by_name)
        missing = set(by_name) - set(saved_components)
        if unknown or missing:
            raise SnapshotMismatchError(
                "snapshot does not fit this build: "
                f"unknown components {sorted(unknown)!r}, "
                f"missing components {sorted(missing)!r}"
            )
        saved_queues = state["queues"]
        expected_queues = set(self._queue_names)
        if set(saved_queues) != expected_queues:
            raise SnapshotMismatchError(
                "snapshot does not fit this build: "
                f"unknown queues {sorted(set(saved_queues) - expected_queues)!r}, "
                f"missing queues {sorted(expected_queues - set(saved_queues))!r}"
            )
        self.cycle = state["cycle"]
        self.cycles_skipped = state["cycles_skipped"]
        self._quiet_step = state["quiet_step"]
        scheduled: List[Component] = []
        for name, entry in saved_components.items():
            component = by_name[name]
            component._scheduled = entry["scheduled"]
            component._parked_until = entry["parked_until"]
            sub = entry.get("state")
            if sub is not None:
                if not isinstance(component, Snapshottable):
                    raise SnapshotMismatchError(
                        f"component {name!r} has captured state but this "
                        f"build's {type(component).__name__} is not "
                        f"Snapshottable"
                    )
                component.restore(sub)
            if component._scheduled:
                scheduled.append(component)
        scheduled.sort(key=_sched_key)
        self._run_list = scheduled
        self._wakes = []
        for name, envelope in saved_queues.items():
            self._queue_names[name].restore(envelope)
        self._dirty_queues = [self._queue_names[n] for n in state["dirty_queues"]]
        wheel = self._wheel
        wheel._buckets.clear()
        wheel._heap.clear()
        for slot, names in state["wheel"]["buckets"].items():
            wheel._buckets[slot] = [by_name[n] for n in names]
            heappush(wheel._heap, slot)
        wheel.events_scheduled = state["wheel"]["events_scheduled"]
        wheel.events_fired = state["wheel"]["events_fired"]
        self.stats.restore(state["stats"])
        self.trace.restore(state["trace"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator cycle={self.cycle} components={len(self._components)} "
            f"queues={len(self._queues)}>"
        )
