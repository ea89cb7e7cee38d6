"""Cycle-based simulation kernel.

The kernel is deliberately simple and deterministic: a :class:`Simulator`
owns a set of :class:`~repro.sim.component.Component` objects and a set of
:class:`~repro.sim.queue.SimQueue` channels.  Each cycle has two phases:

1. *tick* — every component observes the committed state of its input
   queues and stages pushes onto its output queues;
2. *commit* — all staged pushes become visible.

Because pushes staged in cycle *n* are only observable in cycle *n + 1*,
every queue hop costs exactly one cycle, which is how link and router
pipeline latency is modelled throughout the transport layer.
"""

from repro.sim.component import Component
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.queue import SimQueue
from repro.sim.stats import Histogram, LatencyStat, StatsRegistry
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "Component",
    "Histogram",
    "LatencyStat",
    "SimQueue",
    "SimulationError",
    "Simulator",
    "StatsRegistry",
    "TraceEvent",
    "Tracer",
]
