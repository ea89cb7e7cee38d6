"""``dma_chain`` — chained read→compute→write DMA programs.

Eight AXI DMA engines each execute ``links`` dataflow links: fetch a
chunk from the (slow) ``src`` memory, spend ``compute_delay`` cycles on
it, store the result to the (fast) ``dst`` memory, then start the next
link — the classic descriptor-chained offload engine.  Every link is
serialized through ``after=`` dependencies, so the per-engine issue
order is a correctness property the determinism tests can pin.
"""

from __future__ import annotations

from repro.soc.builder import NocSoc, SocBuilder
from repro.soc.config import InitiatorSpec, TargetSpec
from repro.workloads.dma import DmaDescriptor, DmaEngine

__all__ = ["build", "describe"]

_SRC_SIZE = 0x4000
_DST_SIZE = 0x4000


def describe() -> str:
    return (
        "8 DMA engines running chained read->compute->write descriptor "
        "programs between a slow source and a fast destination memory"
    )


def _chain_program(
    index: int,
    links: int,
    bursts: int,
    burst_beats: int,
    beat_bytes: int,
    compute_delay: int,
):
    chunk = bursts * burst_beats * beat_bytes
    program = []
    for link in range(links):
        offset = (index * links + link) * chunk
        read = len(program)
        program.append(
            DmaDescriptor(
                "read",
                address=offset,
                beats=burst_beats,
                beat_bytes=beat_bytes,
                bursts=bursts,
                # Serialize link n+1 behind link n's store.
                after=(read - 1,) if link else (),
            )
        )
        program.append(
            DmaDescriptor("compute", delay=compute_delay, after=(read,))
        )
        program.append(
            DmaDescriptor(
                "write",
                address=_SRC_SIZE + offset,
                beats=burst_beats,
                beat_bytes=beat_bytes,
                bursts=bursts,
                after=(read + 1,),
                pattern=index * links + link,
            )
        )
    return program


def build(
    *,
    masters: int = 8,
    links: int = 3,
    bursts: int = 4,
    burst_beats: int = 8,
    beat_bytes: int = 4,
    compute_delay: int = 12,
    strict_kernel=None,
) -> NocSoc:
    chunk = bursts * burst_beats * beat_bytes
    if masters * links * chunk > _SRC_SIZE:
        raise ValueError(
            f"dma_chain: {masters} engines x {links} links x {chunk}B "
            f"chunks overflow the {_SRC_SIZE:#x}-byte regions"
        )
    engines = {
        f"dma{index}": DmaEngine(
            f"dma{index}",
            _chain_program(
                index, links, bursts, burst_beats, beat_bytes, compute_delay
            ),
        )
        for index in range(masters)
    }
    builder = SocBuilder(name="dma_chain", strict_kernel=strict_kernel)
    for name, engine in engines.items():
        builder.add_initiator(
            InitiatorSpec(name, "AXI", engine, protocol_kwargs={"id_count": 4})
        )
    builder.add_target(
        TargetSpec("src", size=_SRC_SIZE, read_latency=6, write_latency=3)
    )
    builder.add_target(
        TargetSpec("dst", size=_DST_SIZE, read_latency=2, write_latency=1)
    )
    return builder.build()
