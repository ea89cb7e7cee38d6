"""``dma_chain`` — chained read→compute→write DMA programs.

Eight AXI DMA engines each execute three dataflow links: fetch a chunk
from the (slow) ``src`` memory, spend ``_COMPUTE_DELAY`` cycles on it,
store the result to the (fast) ``dst`` memory, then start the next link
— the classic descriptor-chained offload engine.  Every link is
serialized through ``after=`` dependencies, so the per-engine issue
order is a correctness property the determinism tests can pin.
"""

from __future__ import annotations

from repro.ip.traffic import TrafficSpec
from repro.soc.builder import NocSoc, SocBuilder
from repro.soc.config import InitiatorSpec, TargetSpec
from repro.workloads.dma import DmaDescriptor

__all__ = ["build"]

_MASTERS = 8
_LINKS = 3
_BURSTS = 4  # per chunk, of 8 beats x 4 bytes: a 128-byte chunk
_COMPUTE_DELAY = 12
_SRC_SIZE = 0x4000
_DST_SIZE = 0x4000


def _chain_program(index: int):
    chunk = _BURSTS * 8 * 4
    program = []
    for link in range(_LINKS):
        offset = (index * _LINKS + link) * chunk
        read = len(program)
        program.append(
            DmaDescriptor(
                "read",
                address=offset,
                beats=8,
                beat_bytes=4,
                bursts=_BURSTS,
                # Serialize link n+1 behind link n's store.
                after=(read - 1,) if link else (),
            )
        )
        program.append(
            DmaDescriptor("compute", delay=_COMPUTE_DELAY, after=(read,))
        )
        program.append(
            DmaDescriptor(
                "write",
                address=_SRC_SIZE + offset,
                beats=8,
                beat_bytes=4,
                bursts=_BURSTS,
                after=(read + 1,),
                pattern=index * _LINKS + link,
            )
        )
    return program


def build(*, strict_kernel=None) -> NocSoc:
    builder = SocBuilder(name="dma_chain", strict_kernel=strict_kernel)
    for index in range(_MASTERS):
        builder.add_initiator(
            InitiatorSpec(
                f"dma{index}", "AXI",
                TrafficSpec(kind="dma", program=_chain_program(index)),
                protocol_kwargs={"id_count": 4},
            )
        )
    builder.add_target(
        TargetSpec("src", size=_SRC_SIZE, read_latency=6, write_latency=3)
    )
    builder.add_target(
        TargetSpec("dst", size=_DST_SIZE, read_latency=2, write_latency=1)
    )
    return builder.build()
