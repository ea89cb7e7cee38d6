"""Statistics primitives shared by all layers.

Everything that the benchmarks report — latencies, throughput, link
utilization, feature-coverage ratios — flows through these classes so that
every experiment prints comparable, reproducible numbers.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.sim.snapshot import Snapshottable


class Counter(Snapshottable):
    """A monotonically increasing event counter."""

    _snapshot_fields = ("value",)

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment")
        self.value += amount

    def rate(self, cycles: int) -> float:
        """Events per cycle over ``cycles`` cycles."""
        return self.value / cycles if cycles else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name!r}={self.value}>"


class Histogram(Snapshottable):
    """Simple value histogram with summary statistics."""

    _snapshot_fields = ("_samples",)

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        self._samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def mean(self) -> float:
        return sum(self._samples) / len(self._samples) if self._samples else 0.0

    def minimum(self) -> float:
        return min(self._samples) if self._samples else 0.0

    def maximum(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def stddev(self) -> float:
        n = len(self._samples)
        if n < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(sum((s - mu) ** 2 for s in self._samples) / (n - 1))

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} out of range [0, 100]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "min": self.minimum(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "max": self.maximum(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Histogram {self.name!r} n={self.count} mean={self.mean():.2f}>"


class LatencyStat(Snapshottable):
    """Tracks request→response latencies keyed by an arbitrary token."""

    _snapshot_fields = ("_open",)

    def __init__(self, name: str) -> None:
        self.name = name
        self._open: Dict[object, int] = {}
        self.histogram = Histogram(name)

    def _snapshot_state(self) -> Dict[str, object]:
        state = super()._snapshot_state()
        state["histogram"] = self.histogram.snapshot()
        return state

    def _restore_state(self, state) -> None:
        super()._restore_state(state)
        self.histogram.restore(state["histogram"])

    def start(self, token: object, cycle: int) -> None:
        if token in self._open:
            raise KeyError(f"latency {self.name!r}: token {token!r} already open")
        self._open[token] = cycle

    def stop(self, token: object, cycle: int) -> float:
        try:
            started = self._open.pop(token)
        except KeyError:
            raise KeyError(
                f"latency {self.name!r}: token {token!r} was never started"
            ) from None
        delta = cycle - started
        if delta < 0:
            raise ValueError(f"latency {self.name!r}: negative latency {delta}")
        self.histogram.add(delta)
        return float(delta)

    @property
    def open_count(self) -> int:
        return len(self._open)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<LatencyStat {self.name!r} open={self.open_count}>"


class StatsRegistry:
    """Namespace of counters/histograms/latency stats for one simulation."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._latencies: Dict[str, LatencyStat] = {}

    # ------------------------------------------------------------------ #
    # state capture
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """Capture every registered stat, keyed by kind and name."""
        return {
            "counters": {n: c.snapshot() for n, c in self._counters.items()},
            "histograms": {n: h.snapshot() for n, h in self._histograms.items()},
            "latencies": {n: s.snapshot() for n, s in self._latencies.items()},
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Restore via get-or-create, in place for every stat named.

        Components cache references to their stats (e.g. a protocol
        master resolves its latency stat once in ``bind``), so restore
        must mutate the registered objects in place.  A snapshot may
        name stats this build has not touched yet — get-or-create
        registers them, exactly as first use would have.  A stat the
        snapshot does not name was first used after the cut and is
        dropped, so restoring into the SoC the snapshot came from leaves
        no post-cut samples behind (lazily resolved handle caches must
        be cleared by their owner's restore).
        """
        for registered, saved, get in (
            (self._counters, state["counters"], self.counter),
            (self._histograms, state["histograms"], self.histogram),
            (self._latencies, state["latencies"], self.latency),
        ):
            for name in registered.keys() - saved.keys():
                del registered[name]
            for name, envelope in saved.items():
                get(name).restore(envelope)

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def latency(self, name: str) -> LatencyStat:
        if name not in self._latencies:
            self._latencies[name] = LatencyStat(name)
        return self._latencies[name]

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms(self) -> Dict[str, Dict[str, float]]:
        return {name: h.summary() for name, h in sorted(self._histograms.items())}

    def report(self) -> str:
        """Human-readable dump used by examples and bench harnesses."""
        lines: List[str] = []
        if self._counters:
            lines.append("counters:")
            for name, counter in sorted(self._counters.items()):
                lines.append(f"  {name}: {counter.value}")
        for name, hist in sorted(self._histograms.items()):
            s = hist.summary()
            lines.append(
                f"hist {name}: n={int(s['count'])} mean={s['mean']:.2f} "
                f"p50={s['p50']:.0f} p95={s['p95']:.0f} max={s['max']:.0f}"
            )
        for name, lat in sorted(self._latencies.items()):
            s = lat.histogram.summary()
            lines.append(
                f"latency {name}: n={int(s['count'])} mean={s['mean']:.2f} "
                f"p50={s['p50']:.0f} p95={s['p95']:.0f} max={s['max']:.0f} "
                f"open={lat.open_count}"
            )
        return "\n".join(lines)
