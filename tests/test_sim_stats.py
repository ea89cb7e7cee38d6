"""Unit + property tests for the statistics primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import Counter, Histogram, LatencyStat, StatsRegistry


def test_counter_basics():
    c = Counter("c")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert c.rate(10) == 0.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_histogram_summary():
    h = Histogram("h")
    for v in [1, 2, 3, 4, 5]:
        h.add(v)
    s = h.summary()
    assert s["count"] == 5
    assert s["mean"] == 3
    assert s["min"] == 1
    assert s["max"] == 5
    assert s["p50"] == 3


def test_histogram_empty_is_zeroes():
    h = Histogram("h")
    assert h.mean() == 0.0
    assert h.percentile(99) == 0.0


def test_percentile_bounds_checked():
    empty = Histogram("empty")
    h = Histogram("h")
    h.add(1)
    # The range check comes before the empty-histogram early return.
    for hist in (empty, h):
        for p in (101, 150, -0.1):
            with pytest.raises(ValueError):
                hist.percentile(p)


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=200))
def test_percentile_properties(samples):
    h = Histogram("h")
    for s in samples:
        h.add(s)
    p0 = h.percentile(0.0001)
    p100 = h.percentile(100)
    assert p0 == min(samples)
    assert p100 == max(samples)
    assert h.minimum() <= h.percentile(50) <= h.maximum()


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100))
def test_stddev_nonnegative(samples):
    h = Histogram("h")
    for s in samples:
        h.add(s)
    assert h.stddev() >= 0.0


def test_latency_stat_roundtrip():
    lat = LatencyStat("l")
    lat.start("t1", 10)
    assert lat.open_count == 1
    assert lat.stop("t1", 25) == 15
    assert lat.open_count == 0
    assert lat.histogram.mean() == 15


def test_latency_double_start_rejected():
    lat = LatencyStat("l")
    lat.start("t", 0)
    with pytest.raises(KeyError):
        lat.start("t", 1)


def test_latency_unknown_stop_rejected():
    lat = LatencyStat("l")
    with pytest.raises(KeyError):
        lat.stop("nope", 5)


def test_latency_negative_rejected():
    lat = LatencyStat("l")
    lat.start("t", 10)
    with pytest.raises(ValueError):
        lat.stop("t", 5)


def test_registry_memoizes():
    reg = StatsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.histogram("y") is reg.histogram("y")
    assert reg.latency("z") is reg.latency("z")


def test_registry_report_contains_names():
    reg = StatsRegistry()
    reg.counter("hits").inc(3)
    reg.histogram("lat").add(5)
    report = reg.report()
    assert "hits: 3" in report
    assert "lat" in report
