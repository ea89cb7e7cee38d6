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

from typing import Dict, List, Tuple

from repro.workloads.channels import StreamChannel
from repro.workloads.dma import DmaDescriptor, DmaEngine

__all__ = ["tree_reduction"]


def _bursts_per_chunk(chunk_bytes: int, burst_beats: int, beat_bytes: int) -> int:
    return max(1, chunk_bytes // (burst_beats * beat_bytes))


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
    bursts = _bursts_per_chunk(block_bytes, burst_beats, beat_bytes)

    def slot(i: int) -> int:
        return scratch_base + i * block_bytes

    # ch[(i, L)]: master i's slot holds its level-L partial (one token
    # per burst of the write that produced it).
    channels: Dict[Tuple[int, int], StreamChannel] = {}

    def channel(i: int, level: int) -> StreamChannel:
        key = (i, level)
        if key not in channels:
            channels[key] = StreamChannel(f"tree.{masters[i]}.L{level}")
        return channels[key]

    programs: Dict[str, List[DmaDescriptor]] = {}
    last_write: Dict[int, int] = {}  # master -> desc index of last write
    level: Dict[int, int] = {}  # master -> level its slot holds
    for i, name in enumerate(masters):
        programs[name] = [
            DmaDescriptor(
                "write",
                address=slot(i),
                beats=burst_beats,
                beat_bytes=beat_bytes,
                bursts=bursts,
                signal=channel(i, 0),
                priority=priority,
                pattern=i,
            )
        ]
        last_write[i] = 0
        level[i] = 0

    step = 1
    while step < n:
        for i in range(0, n, 2 * step):
            partner = i + step
            if partner >= n:
                continue  # bye: carries its partial up unchanged
            program = programs[masters[i]]
            read_idx = len(program)
            program.append(
                DmaDescriptor(
                    "read",
                    address=slot(partner),
                    beats=burst_beats,
                    beat_bytes=beat_bytes,
                    bursts=bursts,
                    wait=channel(partner, level[partner]),
                    priority=priority,
                )
            )
            program.append(
                DmaDescriptor(
                    "compute",
                    delay=compute_delay,
                    after=(read_idx, last_write[i]),
                )
            )
            level[i] += 1
            program.append(
                DmaDescriptor(
                    "write",
                    address=slot(i),
                    beats=burst_beats,
                    beat_bytes=beat_bytes,
                    bursts=bursts,
                    after=(read_idx + 1,),
                    signal=channel(i, level[i]),
                    priority=priority,
                    pattern=i + level[i] * n,
                )
            )
            last_write[i] = read_idx + 2
        step *= 2

    if allreduce:
        root_channel = channel(0, level[0])
        for i, name in enumerate(masters):
            if i == 0:
                continue
            programs[name].append(
                DmaDescriptor(
                    "read",
                    address=slot(0),
                    beats=burst_beats,
                    beat_bytes=beat_bytes,
                    bursts=bursts,
                    wait=root_channel,
                    priority=priority,
                )
            )

    return {
        name: DmaEngine(name, program, priority=priority)
        for name, program in programs.items()
    }
