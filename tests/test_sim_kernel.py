"""Unit tests for the simulation kernel."""

import pytest

from repro.sim.component import Component
from repro.sim.kernel import SimulationError, Simulator


class Ticker(Component):
    def __init__(self, name):
        super().__init__(name)
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


class Producer(Component):
    def __init__(self, name, queue, count):
        super().__init__(name)
        self.queue = queue
        self.count = count

    def tick(self, cycle):
        if self.count and self.queue.can_push():
            self.queue.push(cycle)
            self.count -= 1


class Consumer(Component):
    def __init__(self, name, queue):
        super().__init__(name)
        self.queue = queue
        self.received = []

    def tick(self, cycle):
        if self.queue:
            self.received.append((cycle, self.queue.pop()))


def test_components_tick_each_cycle():
    sim = Simulator()
    t = sim.add(Ticker("t"))
    sim.run(5)
    assert t.ticks == [0, 1, 2, 3, 4]
    assert sim.cycle == 5


def test_duplicate_component_name_rejected():
    sim = Simulator()
    sim.add(Ticker("t"))
    with pytest.raises(SimulationError):
        sim.add(Ticker("t"))


def test_duplicate_queue_name_rejected():
    sim = Simulator()
    sim.new_queue("q")
    with pytest.raises(SimulationError):
        sim.new_queue("q")


def test_queue_hop_costs_one_cycle():
    """An item pushed at cycle N is consumable at cycle N+1."""
    sim = Simulator()
    q = sim.new_queue("q", capacity=4)
    sim.add(Producer("p", q, count=3))
    c = sim.add(Consumer("c", q))
    sim.run(6)
    # produced at 0,1,2 -> consumed at 1,2,3
    assert [(rc, pc) for rc, pc in c.received] == [(1, 0), (2, 1), (3, 2)]


def test_consumer_order_independent_of_registration():
    """Registering the consumer before the producer gives identical
    results — the staged queue decouples tick order."""
    results = []
    for consumer_first in (True, False):
        sim = Simulator()
        q = sim.new_queue("q", capacity=4)
        p = Producer("p", q, count=3)
        c = Consumer("c", q)
        for comp in ([c, p] if consumer_first else [p, c]):
            sim.add(comp)
        sim.run(6)
        results.append(c.received)
    assert results[0] == results[1]


def test_run_until_predicate():
    sim = Simulator()
    t = sim.add(Ticker("t"))
    sim.run_until(lambda: len(t.ticks) >= 10, max_cycles=100)
    assert len(t.ticks) >= 10


def test_run_until_timeout_raises():
    sim = Simulator()
    sim.add(Ticker("t"))
    with pytest.raises(SimulationError):
        sim.run_until(lambda: False, max_cycles=10)
    assert sim.cycle == 10


def test_component_lookup_by_name():
    sim = Simulator()
    t = sim.add(Ticker("abc"))
    assert sim.component("abc") is t


def test_unbound_component_has_no_simulator():
    t = Ticker("lonely")
    with pytest.raises(RuntimeError):
        __ = t.simulator


def test_component_cannot_rebind():
    t = Ticker("t")
    Simulator().add(t)
    with pytest.raises(RuntimeError):
        Simulator().add(t)


class SleepyConsumer(Component):
    """Dormant whenever its queue is empty; a push wakes it."""

    def __init__(self, name, queue):
        super().__init__(name)
        self.queue = queue
        queue.wake_on_push(self)
        self.ticks = []
        self.received = []

    def next_event_cycle(self, now):
        return now if self.queue else None

    def tick(self, cycle):
        self.ticks.append(cycle)
        if self.queue:
            self.received.append(self.queue.pop())


def test_idle_component_is_skipped_and_woken():
    sim = Simulator()
    q = sim.new_queue("q", capacity=4)
    c = sim.add(SleepyConsumer("c", q))
    sim.run(40)  # queue stays empty: consumer retires after a sweep
    ticks_while_idle = len(c.ticks)
    assert ticks_while_idle < 40
    sim.run(20)
    assert len(c.ticks) == ticks_while_idle  # fully asleep now
    q.push("item")
    sim.run(3)  # commit happens at the end of the push cycle
    assert c.received == ["item"]
    assert len(c.ticks) > ticks_while_idle


def test_strict_mode_never_skips():
    sim = Simulator(strict=True)
    q = sim.new_queue("q", capacity=4)
    c = sim.add(SleepyConsumer("c", q))
    sim.run(40)
    assert len(c.ticks) == 40


def test_active_count_drops_when_idle():
    sim = Simulator()
    q = sim.new_queue("q", capacity=4)
    sim.add(SleepyConsumer("c", q))
    always_on = sim.add(Ticker("t"))
    sim.run(20)
    assert sim.active_count == 1  # only the default always-on Ticker
    assert len(always_on.ticks) == 20


def test_component_added_mid_run_is_scheduled():
    sim = Simulator()
    sim.run(5)
    t = sim.add(Ticker("late"))
    sim.run(3)
    assert t.ticks == [5, 6, 7]
