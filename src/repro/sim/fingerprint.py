"""The run fingerprint: the determinism contract's one comparable dict.

A *fingerprint* is the full observable surface of a run: every named
part's declared counters, the masters' latency summaries, the registry
histograms, the trace stream and the memory images.  The kernel
determinism matrix pins the activity kernel against the strict reference
with it, and the snapshot round-trip tests a restored run against an
uninterrupted one, so "byte-identical restore" means exactly what
"byte-identical kernels" means.

The counters are one walk over :func:`named_parts` (the parts a
checkpoint carries): a part whose class declares ``COUNTERS`` (a
:class:`~repro.sim.stats.Counters`) puts those attributes, in declared
order, in the declared section under its name, e.g.
``fingerprint["routers"][name] == (flits_forwarded, ...)``.

A memory image is one value per memory: its store's data and
written-mask as two hex strings (:meth:`repro.ip.slaves.ByteStore.image`),
exact and JSON-native, so a fingerprint and its JSON text cost what the
stores hold, not an object per byte written.

Two builds of the same SoC are byte-comparable whatever ran before
them in the process: each draws its transaction and packet ids from its
own simulator's streams.
"""

from __future__ import annotations

from typing import Dict, Tuple


def reset_ids() -> None:
    """No-op: a SoC's ids are its simulator's (kept for older callers)."""


def named_parts(soc) -> Dict[Tuple[str, str], object]:
    """The SoC's parts by ``(kind, name)``: every registered component
    and queue, by registration name, and every master's traffic source,
    by the master's name."""
    named: Dict[Tuple[str, str], object] = {}
    for component in soc.sim._components:
        named["component", component.name] = component
    for queue in soc.sim._queues:
        named["queue", queue.name] = queue
    for name, master in soc.masters.items():
        named["traffic source", name] = master.traffic
    return named


def declared_counters(named) -> Dict[str, Dict[str, Tuple[int, ...]]]:
    """``{section: {name: counters}}`` of every part in ``named`` whose
    class declares ``COUNTERS``."""
    sections: Dict[str, Dict[str, Tuple[int, ...]]] = {}
    for (__, name), part in named.items():
        declared = getattr(part, "COUNTERS", None)
        if declared is not None:
            sections.setdefault(declared.section, {})[name] = tuple(
                getattr(part, counter) for counter in declared.names
            )
    return sections


def fingerprint_soc(soc) -> Dict:
    """Collect the observable-state fingerprint of ``soc`` right now."""
    sim = soc.sim
    return {
        **declared_counters(named_parts(soc)),
        "latencies": {name: soc.master_latency(name) for name in soc.masters},
        "stats": sim.stats.histograms(),
        "trace": sim.trace.dump(),
        "memory": soc.memory_image(),
        "cycle": sim.cycle,
    }
