"""Base class for everything that lives inside a :class:`Simulator`."""

from __future__ import annotations


class Component:
    """A named object ticked by the simulator.

    Subclasses override :meth:`tick`.  During ``tick`` a component may pop
    from its input queues (immediately visible) and push to its output
    queues (visible to consumers only from the next cycle, once the kernel
    commits).  Components must not communicate through shared mutable
    state outside of queues; that is what keeps the simulation
    deterministic regardless of registration order for well-formed models.

    Activity contract
    -----------------
    The kernel is *activity-driven*: it only ticks components in its
    active set, and :meth:`next_event_cycle` is the one predicate that
    takes a component out of it.  The default answers ``now`` ("I may
    act on my next clock edge"), so a component that implements nothing
    behaves exactly as under a tick-everything kernel.

    A component that answers a later cycle, or ``None`` for dormant,
    promises that every external event that can create an earlier event
    :meth:`wake`\\ s it.  Registering via :meth:`SimQueue.wake_on_push
    <repro.sim.queue.SimQueue.wake_on_push>` /
    :meth:`SimQueue.wake_on_pop <repro.sim.queue.SimQueue.wake_on_pop>`
    covers the queue-borne events, which are the only legal ones.

    Under that rule the activity-driven schedule is cycle-for-cycle
    identical to ticking everything (``Simulator(strict=True)``).

    Clock domains
    -------------
    Every component belongs to a clock domain.  The default is the kernel
    reference clock (``clock_domain is None``): the component is ticked on
    every kernel cycle, exactly as before.  :meth:`set_clock_domain`
    assigns a slower GALS-style domain; both kernels (activity-driven and
    strict) then invoke :meth:`tick` only on that domain's clock edges, so
    domain gating never perturbs strict-vs-activity determinism.  Ticks
    always receive the *kernel* cycle number — timestamps, latencies and
    traces stay in one global time base regardless of domain membership.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._simulator = None
        # Scheduler bookkeeping (owned by Simulator; see kernel.py).
        self._scheduled = False
        self._sched_index = -1
        # >= 0 while parked on the kernel's timing wheel (the value is the
        # wheel slot's cycle; -1 otherwise).  Owned by Simulator/wake.
        self._parked_until = -1
        # Clock-domain gating (see set_clock_domain); divisor 1 == the
        # kernel reference clock, checked on the kernel hot path as two
        # plain ints so ungated components pay one compare per tick.
        self.clock_domain = None
        self._clk_divisor = 1
        self._clk_phase = 0

    @property
    def simulator(self):
        """The :class:`Simulator` this component is registered with."""
        if self._simulator is None:
            raise RuntimeError(f"component {self.name!r} is not registered")
        return self._simulator

    @property
    def now(self) -> int:
        """Current simulation cycle (convenience passthrough)."""
        return self.simulator.cycle

    def bind(self, simulator) -> None:
        """Called by :meth:`Simulator.add`.  Subclasses rarely override."""
        if self._simulator is not None and self._simulator is not simulator:
            raise RuntimeError(
                f"component {self.name!r} is already bound to another simulator"
            )
        self._simulator = simulator

    def set_clock_domain(self, domain) -> None:
        """Place this component in ``domain`` (a
        :class:`~repro.phys.clocking.ClockDomain` or anything with integer
        ``divisor``/``phase`` attributes).  The kernel then ticks it only
        on cycles where ``cycle % divisor == phase``.  ``None`` restores
        the kernel reference clock.  Divisor-1 domains are exactly the
        reference clock, so assigning one is cycle-identical to the
        default.
        """
        self.clock_domain = domain
        if domain is None:
            self._clk_divisor = 1
            self._clk_phase = 0
        else:
            self._clk_divisor = domain.divisor
            self._clk_phase = domain.phase

    def wake(self) -> None:
        """(Re-)schedule this component so it ticks next cycle.

        Idempotent and cheap when already scheduled; a no-op before the
        component is registered (registration schedules it anyway).
        """
        if not self._scheduled:
            sim = self._simulator
            if sim is not None:
                self._scheduled = True
                self._parked_until = -1  # invalidate any timing-wheel slot
                sim._wakes.append(self)

    def next_event_cycle(self, now: int):
        """Earliest cycle >= ``now`` at which :meth:`tick` might not be a
        no-op, or ``None`` for "never, until something wakes me".

        This is the whole activity contract, evaluated on currently
        visible state (after queue commits).  The answer promises:

        - every tick at a cycle *before* the returned value changes no
          consumer-visible state, no stats and no traces — the kernel may
          therefore skip those cycles entirely or park the component on
          its timing wheel until the returned cycle; and
        - ``None`` (dormant: this tick, and every future tick until
          external input arrives, is a no-op) additionally promises that
          every external event that could create an event :meth:`wake`\\ s
          the component — a wake during a skipped window re-schedules
          the component and invalidates its wheel slot.

        The kernel asks between steps, from its retire sweep and its
        skip scan — which the strict kernel never runs — so the answer
        must leave the outcome of every tick unchanged.

        Returning ``now`` means "I may act this coming cycle" and
        disables skipping; that is the default, so a component that does
        not override it ticks on every edge of its clock domain.  The
        kernel aligns returned cycles to the component's clock-domain
        edges itself; multi-domain components (physical links) must
        return edge-accurate cycles for any internal per-edge state of
        their own.

        Components with externally-timetabled events (e.g. the fault
        injector's cycle-stamped link-down/up edges) rely on this
        contract to guarantee the event-wheel kernel never skips *over*
        an edge: return the next scheduled cycle and the kernel will
        land on it exactly, even if the whole fabric is otherwise quiet.

        Stay-hot rule: a component holding work that only *downstream
        queue space* would release must return ``now``, never ``None``.
        :meth:`~repro.sim.queue.SimQueue.pop` frees capacity in the same
        cycle it happens, and the strict kernel lets a later-registered
        component use that slot immediately — whereas a pop-registered
        :meth:`wake` only re-arms the component on the *next* cycle,
        shifting its action one cycle late relative to strict.  ``None``
        is only safe when the component is truly empty of work, because
        push visibility is commit-delayed and push-wakes therefore land
        exactly when the new work becomes observable.

        Own-limit corollary: work held back by state that only the
        component's *own* tick changes (a master at its outstanding
        limit, a response held by stream order) is dormant — the tick
        that changes it needs an input, and inputs push-wake.  But
        sample the reason *when refused, never later*: by the retire
        sweep a later-ticking consumer may have popped the full queue
        that actually refused the work, and what was backpressure (hot)
        would read as an own-limit block (``None``) that nothing ends.
        """
        return now

    def tick(self, cycle: int) -> None:
        """Advance the component by one cycle.  Default: do nothing."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
