"""Timing shims installed from outside the simulator, and the layer table.

A :class:`Tracer` wraps the calls the kernel makes into each layer:

- ``tick`` of every ``soc.sim.components`` entry (instance-level — both
  kernels look ``tick`` up per call);
- ``poll`` / ``lookahead`` / ``notify_complete`` of every
  ``master.traffic`` (instance-level);
- ``SimQueue.commit``, ``Histogram.add``, ``LatencyStat.start`` / ``stop``
  and the ``Checkpoint`` capture/restore/serialise methods (class-level,
  only while :meth:`Tracer.installed` is open).

Each wrapped call is a span whose parent is the span open when it started
(run → tick → nested poll / stats call).  Spans are not stored one by
one: they are aggregated in memory per (parent layer, layer) as
``[calls, total seconds, self seconds]``, where a span's self time is its
duration minus the part its child spans cover.  The run itself is the
root span and belongs to ``sim.kernel``, whose self time is therefore the
run wall minus everything else: scheduling, wake merge, horizon scans and
the ``run_until`` predicate.

The shims cost time themselves.  The part inside a span is charged to
the span's own layer and the part outside it to whoever made the call, so
on workloads with many short ticks ``sim.kernel`` (which makes most of
the calls) reads high; ``trace.overhead_ratio`` says by how much at most.
Layer self times sum to the traced wall by construction.

A layer is the defining module of the class (see :data:`MODULE_LAYERS`);
a class from an unlisted module raises :class:`UnmappedClassError`, so
nothing lands in a silent "other".
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.sim.queue import SimQueue
from repro.sim.stats import Histogram, LatencyStat
from repro.sweep import Checkpoint

#: Layer names, outside-in.  ``sim.kernel`` is first: it is the root span.
LAYERS = (
    "sim.kernel", "sim.queue", "sim.stats",
    "transport.router", "transport.ports", "transport.faults", "phys",
    "niu", "protocols", "ip.traffic", "ip.slaves", "workloads", "sweep",
)

#: Module prefix → layer.  ``repro.sim.shard`` holds the two halves of a
#: cut physical link, so it counts as ``phys``; ``repro.bus`` and
#: ``repro.core`` have no row (no workload builds a bus, and ``core`` has
#: no components of its own — its calls are charged to the caller).
MODULE_LAYERS = (
    ("repro.sim.queue", "sim.queue"),
    ("repro.sim.stats", "sim.stats"),
    ("repro.sim.shard", "phys"),
    ("repro.transport.router", "transport.router"),
    ("repro.transport.router_core", "transport.router"),
    ("repro.transport.network", "transport.ports"),
    ("repro.transport.faults", "transport.faults"),
    ("repro.phys", "phys"),
    ("repro.niu", "niu"),
    ("repro.protocols", "protocols"),
    ("repro.ip.traffic", "ip.traffic"),
    ("repro.ip.slaves", "ip.slaves"),
    ("repro.workloads", "workloads"),
    ("repro.sweep", "sweep"),
)

_TRAFFIC_CALLS = ("poll", "lookahead", "notify_complete")
_CLASS_CALLS = (
    (SimQueue, "commit"),
    (Histogram, "add"),
    (LatencyStat, "start"),
    (LatencyStat, "stop"),
    (Checkpoint, "capture"),
    (Checkpoint, "restore_into"),
    (Checkpoint, "to_bytes"),
    (Checkpoint, "from_bytes"),
)


class UnmappedClassError(LookupError):
    """A class whose module belongs to no named layer."""


def layer_of(cls) -> str:
    module = cls.__module__
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    raise UnmappedClassError(
        f"{module}.{cls.__qualname__} belongs to no layer of the table; "
        f"add its module to tracing.MODULE_LAYERS"
    )


class Tracer:
    """Aggregates spans of one traced run."""

    def __init__(self) -> None:
        self._index = {layer: i for i, layer in enumerate(LAYERS)}
        # _rows[layer][parent] = [calls, total_s, self_s]
        self._rows = [
            [[0, 0.0, 0.0] for _ in LAYERS] for _ in LAYERS
        ]
        # [layer of the open span, seconds its finished children cover]
        self._open = [0, 0.0]
        #: [calls, seconds] per labelled call: component ticks and the
        #: Checkpoint methods behind the sweep.* metrics
        self.by_call = {}

    # ------------------------------------------------------------------ #
    def span(self, layer: str, fn, label=None):
        """Wrap ``fn`` so every call is a span of ``layer``."""
        me = self._index[layer]
        row = self._rows[me]
        state = self._open
        clock = time.perf_counter
        detail = None
        if label is not None:
            detail = self.by_call.setdefault(label, [0, 0.0])

        def shim(*args):
            parent, covered = state
            state[0] = me
            state[1] = 0.0
            started = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - started
                record = row[parent]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - state[1]
                state[0] = parent
                state[1] = covered + elapsed
                if detail is not None:
                    detail[0] += 1
                    detail[1] += elapsed

        return shim

    def instrument(self, soc):
        """Install the instance-level shims on ``soc``; returns it."""
        for component in soc.sim.components:
            component.tick = self.span(
                layer_of(type(component)), component.tick, "tick"
            )
        for master in soc.masters.values():
            traffic = master.traffic
            layer = layer_of(type(traffic))
            for name in _TRAFFIC_CALLS:
                call = getattr(traffic, name, None)
                if call is not None:
                    setattr(traffic, name, self.span(layer, call))
        return soc

    @contextmanager
    def installed(self):
        """Class-level shims, in place only while the traced run runs."""
        originals = []
        for cls, name in _CLASS_CALLS:
            original = vars(cls)[name]
            originals.append((cls, name, original))
            layer = layer_of(cls)
            label = f"{cls.__name__}.{name}" if layer == "sweep" else None
            if isinstance(original, classmethod):
                shim = classmethod(
                    self.span(layer, original.__func__, label)
                )
            else:
                shim = self.span(layer, original, label)
            setattr(cls, name, shim)
        try:
            yield self
        finally:
            for cls, name, original in originals:
                setattr(cls, name, original)

    # ------------------------------------------------------------------ #
    def table(self, wall_s: float) -> dict:
        """Per-layer ``self_s`` / ``calls`` / ``share`` of ``wall_s``,
        with each layer's calls and total time by parent layer."""
        layers = {}
        for layer, row in zip(LAYERS, self._rows):
            layers[layer] = {
                "calls": sum(record[0] for record in row),
                "self_s": sum(record[2] for record in row),
                "by_parent": {
                    parent: {"calls": record[0], "total_s": record[1]}
                    for parent, record in zip(LAYERS, row)
                    if record[0]
                },
            }
        # The root span: one call, and whatever no other layer accounts for.
        kernel = layers["sim.kernel"]
        kernel["calls"] = 1
        kernel["self_s"] = wall_s - sum(
            entry["self_s"] for entry in layers.values()
        )
        for entry in layers.values():
            entry["share"] = entry["self_s"] / wall_s
        return layers
