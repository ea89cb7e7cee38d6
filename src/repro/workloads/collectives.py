"""Collective patterns as generated descriptor programs.

Masters on a NoC cannot address each other directly — they only reach
memory targets through the address map — so collectives are expressed
the way real accelerators do it: through *memory mailboxes*.  Master
``i`` writes its contribution into a mailbox region, signals a stream
channel, and the reader's descriptor waits on that channel before
fetching — read-after-write ordering without any fabric-level
synchronization primitive.

A generator returns ``{master_name: DmaEngine}``, one per
``InitiatorSpec(traffic=...)``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from repro.workloads.channels import StreamChannel
from repro.workloads.dma import DmaDescriptor, DmaEngine

__all__ = ["tree_reduction"]


def _bursts_per_chunk(chunk_bytes: int, burst_beats: int, beat_bytes: int) -> int:
    return max(1, chunk_bytes // (burst_beats * beat_bytes))


def _tree_pairs(n: int):
    """``(receiver, partner)`` of every round of :func:`tree_reduction`, in
    order; a bye carries its partial up unchanged."""
    step = 1
    while step < n:
        yield from ((i, i + step) for i in range(0, n - step, 2 * step))
        step *= 2


def tree_reduction(
    masters: List[str],
    *,
    scratch_base: int = 0,
    block_bytes: int = 256,
    compute_delay: int = 16,
    allreduce: bool = False,
    burst_beats: int = 8,
    beat_bytes: int = 4,
    priority: int = 0,
) -> Dict[str, DmaEngine]:
    """Binary-tree reduction over memory scratch slots.

    Round ``r`` pairs master ``i`` (``i % 2^(r+1) == 0``) with partner
    ``i + 2^r``: the receiver reads the partner's slot once the partner
    has produced its level-``r`` partial, spends ``compute_delay`` cycles
    combining, and writes the merged partial back to its own slot.
    Master 0 ends up holding the reduction; ``allreduce=True`` appends a
    broadcast phase where every other master reads the root slot.

    The combine step models *latency only* — slot contents stay the
    deterministic write patterns, which is exactly what the memory-image
    fingerprint wants.
    """
    n = len(masters)
    if n < 2:
        raise ValueError("tree_reduction needs at least two masters")
    burst = partial(DmaDescriptor, beats=burst_beats, beat_bytes=beat_bytes,
                    bursts=_bursts_per_chunk(block_bytes, burst_beats, beat_bytes),
                    priority=priority)

    def write(i: int, level: int, **after) -> DmaDescriptor:
        """Master ``i``'s level-``level`` partial into its slot; the write's
        channel gets one token per burst."""
        return burst("write", address=scratch_base + i * block_bytes,
                     signal=StreamChannel(f"tree.{masters[i]}.L{level}"),
                     pattern=i + level * n, **after)

    def read(i: int) -> DmaDescriptor:
        """Master ``i``'s slot, once its latest partial (the last write of
        its program) is written."""
        return burst("read", address=scratch_base + i * block_bytes,
                     wait=programs[masters[i]][-1].signal)

    programs = {name: [write(i, 0)] for i, name in enumerate(masters)}
    level = dict.fromkeys(range(n), 0)  # master -> level its slot holds
    for i, partner in _tree_pairs(n):
        program = programs[masters[i]]
        k = len(program)  # program[k - 1] wrote i's latest partial
        level[i] += 1
        program += [read(partner),
                    DmaDescriptor("compute", delay=compute_delay, after=(k, k - 1)),
                    write(i, level[i], after=(k + 1,))]
    if allreduce:
        for name in masters[1:]:
            programs[name].append(read(0))
    return {name: DmaEngine(name, program, priority=priority)
            for name, program in programs.items()}
