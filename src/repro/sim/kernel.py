"""The cycle-based simulation kernel (activity-driven, event-skipping)."""

from __future__ import annotations

import os
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.component import Component
from repro.sim.queue import SimQueue
from repro.sim.stats import StatsRegistry
from repro.sim.trace import Tracer


class SimulationError(RuntimeError):
    """Raised for kernel-level failures (deadlock, double registration...).

    Subsystems raise *named* subclasses for conditions that deserve a
    distinct ``except`` target — e.g. :class:`RunBudgetExceededError`
    when a ``run_until`` budget runs out.  Catching ``SimulationError``
    still catches them all.
    """


class RunBudgetExceededError(SimulationError):
    """:meth:`Simulator.run_until` spent its ``max_cycles`` budget before
    its predicate held.

    A *named* subclass so callers that can diagnose the stall (e.g.
    :meth:`repro.soc.builder.NocSoc.run_to_completion` asking each
    workload what it is blocked on) can tell a plain budget timeout from
    the other :class:`SimulationError` conditions, which they must not
    mask.
    """


#: Registration-order sort key for the wake merge (C-level accessor: the
#: merge sorts on every cycle that woke anything).
_sched_key = attrgetter("_sched_index")


#: Park a component only when its next event is at least this many cycles
#: out; nearer events stay in the run list (the per-cycle no-op ticks are
#: cheaper than heap churn) and are handled by the whole-kernel skip in
#: :meth:`Simulator.run` when the fabric is quiet.
PARK_HORIZON = 8


class SerialCounter:
    """An id stream: ``itertools.count()`` as a plain object.

    A stream is an attribute of whoever allocates from it, so it travels
    by value in a checkpoint like any other state; ``itertools.count``
    loses its pickle support in later Pythons, this does not.
    """

    __slots__ = ("_next_value",)

    def __init__(self, start: int = 0) -> None:
        self._next_value = start

    def __iter__(self) -> "SerialCounter":
        return self

    def __next__(self) -> int:
        value = self._next_value
        self._next_value = value + 1
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SerialCounter({self._next_value})"


class Simulator:
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
    ``PARK_HORIZON`` away parks it until then, and anything nearer — the
    default answers ``now`` — keeps it ticking.  A
    descheduled component re-enters the set only when
    :meth:`Component.wake` is called — normally by a :class:`SimQueue`
    it registered with (``wake_on_push`` fires at commit time, when
    items become visible).  Wakes run one way, from a push commit to the
    queue's consumers: a pop wakes nobody, because a producer holding
    work blocked on space never leaves the set (the stay-hot rule).
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

    Ids
    ---
    The simulator holds its SoC's two id streams, ``txn_ids`` and
    ``packet_ids``: every master hands ``txn_ids`` to its traffic source,
    every plane hands ``packet_ids`` to its injection ports (a sharded
    build then gives each a stream of its own), and nothing else
    allocates.  A SoC's ids therefore depend on that SoC alone, not on
    what else ran in the process.  ``channels`` holds its DMA token logs.

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
        self.txn_ids = SerialCounter()
        self.packet_ids = SerialCounter()
        self.channels: Dict[str, object] = {}  # name -> TokenLog
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
        # Parked components: a min-heap of (cycle, _sched_index) entries
        # pushed by the retire sweep and popped when their cycle comes due
        # (a component woken earlier leaves its entry behind, and the pop
        # drops it against _parked_until).  run() additionally skips `now`
        # straight past provably dead stretches.
        self._parked: List[Tuple[int, int]] = []
        self._quiet_step = True
        #: Components parked so far (bench metric).
        self.wheel_events = 0
        #: Cycles advanced without executing a kernel step (bench metric).
        self.cycles_skipped = 0

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
        parked = self._parked
        if parked and parked[0][0] <= cycle:
            self._unpark(cycle)
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
        # became visible keeps its consumer scheduled) every RETIRE_EVERY
        # cycles.
        if cycle & self._retire_mask == self._retire_mask:
            self._retire(cycle + 1, run_list)
        self.cycle += 1

    def _unpark(self, cycle: int) -> None:
        """Re-activate parked components whose cycle is due.  Entries are
        validated against the park stamp: a component woken early (or
        re-parked elsewhere) left a stale entry behind, which is simply
        dropped, and so is the second of two entries for one slot."""
        parked = self._parked
        components = self._components
        wakes = self._wakes
        while parked and parked[0][0] <= cycle:
            slot, index = heappop(parked)
            component = components[index]
            if component._parked_until == slot and not component._scheduled:
                component._parked_until = -1
                component._scheduled = True
                wakes.append(component)

    def _retire(self, now: int, run_list: List[Component]) -> None:
        """The retire sweep.  Retirement is purely an optimisation (extra
        ticks of a dormant component are no-ops), and sweeping on a cadence
        keeps busy phases from paying a next-event call per component per
        cycle while bursty traffic oscillates.  A component whose next
        event, aligned to its clock edge, is at least PARK_HORIZON out is
        parked until then; a dormant one (None) is simply descheduled and
        its wake registrations bring it back."""
        parked = self._parked
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
                heappush(parked, (event, component._sched_index))
                self.wheel_events += 1
                continue
            retain(component)
        if len(retained) != len(run_list):
            self._run_list = retained

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
        its clock edge, the park heap contributes its earliest cycle, and
        the minimum is where ``run`` may jump ``now`` to.  Any
        component that may act next cycle makes the answer ``self.cycle``
        (no skip) — the scan bails out on the first such component.
        """
        now = self.cycle
        horizon = limit
        parked = self._parked
        if parked:
            slot = parked[0][0]
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
        The strict kernel executes every cycle, as always.  ``run(0)`` is
        a no-op; a negative count raises :class:`ValueError`.
        """
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator cycle={self.cycle} components={len(self._components)} "
            f"queues={len(self._queues)}>"
        )
