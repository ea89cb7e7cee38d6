"""Unit tests for the tracer."""

import pytest

from differential import build
from repro.sim.trace import TraceEvent, Tracer
from repro.sweep import Checkpoint


def test_disabled_tracer_records_nothing():
    t = Tracer(enabled=False)
    t.log(0, "src", "kind", a=1)
    assert t.events == []


def test_enabled_tracer_records():
    t = Tracer()
    t.log(5, "router", "route", dest=3)
    assert len(t.events) == 1
    event = t.events[0]
    assert event.cycle == 5
    assert event.source == "router"
    assert event.detail == {"dest": 3}


def test_dump_renders_every_event_in_order():
    t = Tracer()
    t.log(3, "s", "k", v=9)
    t.log(4, "r", "j")
    lines = t.dump().splitlines()
    assert lines == [str(TraceEvent(3, "s", "k", {"v": 9})), str(TraceEvent(4, "r", "j"))]
    assert "v=9" in lines[0]


@pytest.mark.parametrize("enabled", [True, False])
def test_enabled_is_fixed_at_construction(enabled):
    """``log`` is bound once, so the setting cannot change under it."""
    t = Tracer(enabled=enabled)
    assert t.enabled is enabled
    assert t.log == (t._log if enabled else t._log_noop)
    with pytest.raises(AttributeError):
        t.enabled = not enabled


def test_a_checkpoint_restores_the_event_list():
    """The tracer travels by value: after a restore into the same SoC
    the simulator holds the checkpoint's copy, and the tracer read off
    it before is stale."""
    soc = build("mixed-protocols")
    tracer = soc.sim.trace
    tracer.log(1, "s", "k")
    checkpoint = Checkpoint.capture(soc)
    tracer.log(2, "s", "k")
    checkpoint.restore_into(soc)
    assert soc.sim.trace is not tracer
    assert [e.cycle for e in soc.sim.trace.events] == [1]
    assert [e.cycle for e in tracer.events] == [1, 2]
