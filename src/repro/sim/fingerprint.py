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

``reset_ids()`` re-arms the process-global transaction/packet id
counters so two builds of the same SoC are byte-comparable; fork workers
call it before rebuilding (restore then overwrites the counters with the
checkpointed values).
"""

from __future__ import annotations

from typing import Dict

import repro.core.transaction as _txn_mod
import repro.transport.flit as _flit_mod
from repro.core.transaction import SerialCounter


def reset_ids() -> None:
    """Re-arm the process-global txn/packet id counters from zero."""
    _txn_mod._txn_ids = SerialCounter()
    _flit_mod._flit_packet_ids = SerialCounter()


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
