"""The simulator's sample store: exact histograms and latency stats.

A :class:`StatsRegistry` hangs off every :class:`~repro.sim.Simulator`
and holds two named tables, both get-or-create: histograms (each
plane's packet latencies by priority and by source→destination pair,
recorded at the ejection ports and read by ``NocSoc.flow_stats()``) and
latency stats (each master's ``<name>.txn`` request→response latency,
read by ``NocSoc.master_latency()``).  Event counts are not kept here:
each component, queue and traffic source counts its own events in plain
integer attributes (``Router.flits_forwarded``, ``SimQueue.total_pushed``,
...), and its class names them once in a :class:`Counters` declaration,
which is all :func:`~repro.sim.fingerprint.fingerprint_soc` reads of it.
Both tables travel with a checkpoint.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Tuple


class Counters(NamedTuple):
    """A class's event counters, declared once as its ``COUNTERS``: the
    fingerprint section its instances go in and the names of their int
    counter attributes, in tuple order.  A subclass :meth:`extend`-s its
    base's, so a section's shared names lead every tuple in it."""

    section: str
    names: Tuple[str, ...]

    def extend(self, *names: str) -> "Counters":
        """The same section, with ``names`` after this declaration's."""
        return Counters(self.section, self.names + names)

    def total(self, fingerprint: Dict, name: str) -> int:
        """Counter ``name`` summed over this section of ``fingerprint``."""
        index = self.names.index(name)
        return sum(row[index] for row in fingerprint.get(self.section, {}).values())


class Histogram:
    """Exact histogram: a ``{value: count}`` map with summary statistics.

    Memory is one entry per distinct value, however many samples arrive,
    and two histograms merge by adding their counts (:meth:`merge`).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counts: Dict[float, int] = {}

    def add(self, value: float) -> None:
        """Record one sample.

        Feed integer values (every recorder in the simulator adds a whole
        number of cycles): :meth:`mean` sums ``value * count`` per
        distinct value, which is exactly the sum of the samples in any
        order only while the samples are integers.
        """
        counts = self._counts
        counts[value] = counts.get(value, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Add every sample of ``other`` to this histogram."""
        counts = self._counts
        for value, count in other._counts.items():
            counts[value] = counts.get(value, 0) + count

    @property
    def count(self) -> int:
        return sum(self._counts.values())

    @property
    def samples(self) -> List[float]:
        """Every sample, in ascending order."""
        return [
            float(value)
            for value in sorted(self._counts)
            for _ in range(self._counts[value])
        ]

    def mean(self) -> float:
        n = self.count
        return sum(v * c for v, c in self._counts.items()) / n if n else 0.0

    def minimum(self) -> float:
        return float(min(self._counts)) if self._counts else 0.0

    def maximum(self) -> float:
        return float(max(self._counts)) if self._counts else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} out of range [0, 100]")
        n = self.count
        if not n:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * n))
        for value in sorted(self._counts):
            rank -= self._counts[value]
            if rank <= 0:
                break
        return float(value)

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


class LatencyStat:
    """Tracks request→response latencies keyed by an arbitrary token."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._open: Dict[object, int] = {}
        self.histogram = Histogram(name)

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
    """Namespace of histograms and latency stats for one simulation."""

    def __init__(self) -> None:
        self._histograms: Dict[str, Histogram] = {}
        self._latencies: Dict[str, LatencyStat] = {}

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def latency(self, name: str) -> LatencyStat:
        if name not in self._latencies:
            self._latencies[name] = LatencyStat(name)
        return self._latencies[name]

    def histograms(self) -> Dict[str, Dict[str, float]]:
        return {name: h.summary() for name, h in sorted(self._histograms.items())}
