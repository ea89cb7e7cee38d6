"""Unit + property tests for the statistics primitives."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from differential import build
from repro.sim.stats import Histogram, LatencyStat, StatsRegistry
from repro.sweep import Checkpoint


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


def _list_summary(samples):
    """The summary of a histogram that keeps every sample in a list: the
    sum taken in arrival order, nearest-rank percentiles of the sorted
    list."""
    ordered = sorted(float(v) for v in samples)

    def percentile(p):
        if not ordered:
            return 0.0
        return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]

    total = 0.0
    for v in samples:
        total += float(v)
    return {
        "count": float(len(ordered)),
        "mean": total / len(ordered) if ordered else 0.0,
        "min": ordered[0] if ordered else 0.0,
        "p50": percentile(50),
        "p95": percentile(95),
        "p99": percentile(99),
        "p999": percentile(99.9),
        "max": ordered[-1] if ordered else 0.0,
    }


def _random_ints(seed):
    rng = random.Random(seed)
    return [rng.randrange(1, 5000) for _ in range(3001)]


@pytest.mark.parametrize("samples", [
    [],
    [7],
    _random_ints(1),
    _random_ints(2),
    # p999 edge: 99.9 / 100 * 1000 rounds just above 999, so with 1,000
    # samples the rank is 1,000 (the outlier); with 1,002 it is 1,001.
    [1] * 999 + [9],
    [1] * 1001 + [9],
])
def test_histogram_summary_equals_the_list_summary(samples):
    h = Histogram("h")
    for v in samples:
        h.add(v)
    summary = h.summary()
    assert summary == _list_summary(samples)
    assert all(type(v) is float for v in summary.values())
    assert h.samples == sorted(float(v) for v in samples)
    assert h.count == len(samples)


def test_histograms_merge_by_adding_counts():
    rng = random.Random(5)
    parts = [[rng.randrange(30) for _ in range(n)] for n in (0, 40, 200)]
    merged = Histogram("all")
    for part in parts:
        h = Histogram("part")
        for v in part:
            h.add(v)
        merged.merge(h)
    everything = [v for part in parts for v in part]
    assert merged.summary() == _list_summary(everything)


def test_histogram_snapshot_round_trip():
    """A registered histogram, checkpointed, then restored into its own
    SoC (the sample added after the capture goes) and into a rebuild."""
    soc = build("mixed-protocols")
    h = soc.sim.stats.histogram("h")
    for v in (3, 3, 5, 40, 3):
        h.add(v)
    checkpoint = Checkpoint.capture(soc)
    h.add(1000)
    checkpoint.restore_into(soc)
    h = soc.sim.stats.histogram("h")
    assert h.summary() == _list_summary([3, 3, 5, 40, 3])
    fresh = build("mixed-protocols")
    checkpoint.restore_into(fresh)
    assert fresh.sim.stats.histogram("h").summary() == h.summary()


def test_histogram_memory_is_per_distinct_value():
    h = Histogram("h")
    for i in range(1_000_000):
        h.add(i % 50)
    assert len(h._counts) == 50
    assert h.count == 1_000_000
    assert h.percentile(50) == 24.0


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
    assert reg.histogram("y") is reg.histogram("y")
    assert reg.latency("z") is reg.latency("z")
