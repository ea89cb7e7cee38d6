"""``collective_allreduce`` — binary-tree allreduce over a torus.

Eight masters on a 4x4 torus (DOR + dateline, the deadlock-free
wraparound configuration) reduce through *memory mailboxes*: masters on
a NoC cannot address each other, only memory targets, so master ``i``
writes its partial into its scratch slot, signals a stream channel, and
the reader's descriptor waits on that channel before fetching —
read-after-write ordering without any fabric-level synchronization
primitive.

Round ``r`` pairs master ``i`` (``i % 2^(r+1) == 0``) with partner
``i + 2^r``: the receiver reads the partner's slot once the partner has
produced its level-``r`` partial, spends ``_COMPUTE_DELAY`` cycles
combining, and writes the merged partial back to its own slot.  Three
combining rounds funnel partials into ``node0``'s slot, then every other
node fetches the result.  All traffic funnels through one scratch
memory, so the reduction tree's serialization — not link bandwidth —
sets the completion time.  The combine step models latency only: slot
contents stay the deterministic write patterns, which is what the
memory-image fingerprint wants.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from repro.ip.traffic import TrafficSpec
from repro.soc.builder import NocSoc, SocBuilder
from repro.soc.config import InitiatorSpec, TargetSpec
from repro.transport import topology as topo
from repro.workloads.channels import StreamChannel
from repro.workloads.dma import DmaDescriptor

__all__ = ["build"]

_MASTERS = 8
_BLOCK_BYTES = 256  # one scratch slot per master: 8 bursts of 8 x 4 bytes
_COMPUTE_DELAY = 16
_SCRATCH_SIZE = 0x4000


def _tree_pairs(n: int):
    """``(receiver, partner)`` of every round, in order; a bye carries its
    partial up unchanged."""
    step = 1
    while step < n:
        yield from ((i, i + step) for i in range(0, n - step, 2 * step))
        step *= 2


def _programs(names: List[str]) -> Dict[str, List[DmaDescriptor]]:
    """Every master's descriptor program: the reduction, then the
    broadcast read of the root slot."""
    n = len(names)
    burst = partial(DmaDescriptor, beats=8, beat_bytes=4,
                    bursts=_BLOCK_BYTES // (8 * 4))

    def write(i: int, level: int, **after) -> DmaDescriptor:
        """Master ``i``'s level-``level`` partial into its slot; the write's
        channel gets one token per burst."""
        return burst("write", address=i * _BLOCK_BYTES,
                     signal=StreamChannel(f"tree.{names[i]}.L{level}"),
                     pattern=i + level * n, **after)

    def read(i: int) -> DmaDescriptor:
        """Master ``i``'s slot, once its latest partial (the last write of
        its program) is written."""
        return burst("read", address=i * _BLOCK_BYTES,
                     wait=programs[names[i]][-1].signal)

    programs = {name: [write(i, 0)] for i, name in enumerate(names)}
    level = dict.fromkeys(range(n), 0)  # master -> level its slot holds
    for i, partner in _tree_pairs(n):
        program = programs[names[i]]
        k = len(program)  # program[k - 1] wrote i's latest partial
        level[i] += 1
        program += [read(partner),
                    DmaDescriptor("compute", delay=_COMPUTE_DELAY,
                                  after=(k, k - 1)),
                    write(i, level[i], after=(k + 1,))]
    for name in names[1:]:
        programs[name].append(read(0))
    return programs


def build(*, strict_kernel=None) -> NocSoc:
    names = [f"node{index}" for index in range(_MASTERS)]
    builder = SocBuilder(
        name="collective_allreduce",
        strict_kernel=strict_kernel,
        topology=topo.torus(4, 4, endpoints=_MASTERS + 1),
        routing="dor",
        vcs=2,
        vc_policy="dateline",
    )
    for name, program in _programs(names).items():
        builder.add_initiator(
            InitiatorSpec(
                name, "AXI", TrafficSpec(kind="dma", program=program),
                protocol_kwargs={"id_count": 4},
            )
        )
    builder.add_target(
        TargetSpec(
            "scratch",
            size=_SCRATCH_SIZE,
            read_latency=2,
            write_latency=1,
            max_outstanding=4,
        )
    )
    return builder.build()
