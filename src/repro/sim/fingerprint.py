"""Shared run-fingerprint helpers for determinism and snapshot tests.

A *fingerprint* is the full observable surface of a run — per-queue
counters, per-component stats, latency histograms, the trace stream, the
memory images — collected into one comparable dict.  The kernel
determinism matrix pins the activity kernel against the strict reference
with it; the snapshot round-trip tests pin a restored run against an
uninterrupted one with the very same structure, so "byte-identical
restore" means exactly what "byte-identical kernels" means.

A memory image is one value per memory: its store's data and
written-mask as two hex strings (:meth:`repro.ip.slaves.ByteStore.image`),
exact and JSON-native, so a fingerprint and its JSON text cost what the
stores hold, not an object per byte written.

Two builds of the same SoC are byte-comparable whatever ran before
them in the process: each draws its transaction and packet ids from its
own simulator's streams.
"""

from __future__ import annotations

from typing import Dict


def reset_ids() -> None:
    """No-op: a SoC's ids are its simulator's (kept for older callers)."""


def fingerprint_soc(soc) -> Dict:
    """Collect the observable-state fingerprint of ``soc`` right now."""
    sim = soc.sim
    queues = {
        name: (q.total_pushed, q.total_popped, q.high_watermark)
        for name, q in sim._queue_names.items()
    }
    masters = {
        name: (m.issued, m.completed, m.errors, m.excl_failures)
        for name, m in soc.masters.items()
    }
    routers = {}
    eports = {}
    for plane in (soc.fabric.request_plane, soc.fabric.response_plane):
        for router in plane.routers.values():
            routers[router.name] = (
                router.flits_forwarded,
                router.packets_forwarded,
                router.lock_stall_cycles,
                router.packets_adaptive,
                router.packets_escape,
            )
        for eport in plane.ejection_ports.values():
            eports[eport.name] = (
                eport.packets_ejected,
                eport.packets_resequenced,
                eport.reorder_high_watermark,
            )
    nius = {
        name: (niu.requests_sent, niu.responses_delivered, niu.stall_cycles)
        for name, niu in soc.initiator_nius.items()
    }
    tnius = {
        name: (t.requests_served, t.excl_failures, t.lock_blocked_cycles)
        for name, t in soc.target_nius.items()
    }
    latencies = {name: soc.master_latency(name) for name in soc.masters}
    return {
        "queues": queues,
        "masters": masters,
        "routers": routers,
        "ejection_ports": eports,
        "initiator_nius": nius,
        "target_nius": tnius,
        "latencies": latencies,
        "stats": sim.stats.histograms(),
        "trace": sim.trace.dump(),
        "memory": soc.memory_image(),
        "completed": soc.total_completed(),
        "cycle": sim.cycle,
    }


def fingerprint(soc, cycles: int) -> Dict:
    """Run ``soc`` for ``cycles`` and return its fingerprint."""
    soc.run(cycles)
    return fingerprint_soc(soc)
