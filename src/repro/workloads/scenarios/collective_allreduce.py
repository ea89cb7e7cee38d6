"""``collective_allreduce`` — binary-tree allreduce over a torus.

Eight masters on a 4x4 torus (DOR + dateline, the deadlock-free
wraparound configuration) run the generated
:func:`~repro.workloads.collectives.tree_reduction` program with the
broadcast phase enabled: three combining rounds funnel partials into
``node0``'s scratch slot, then every other node fetches the result.
All traffic funnels through one scratch memory, so the reduction tree's
serialization — not link bandwidth — sets the completion time.
"""

from __future__ import annotations

from repro.soc.builder import NocSoc, SocBuilder
from repro.soc.config import InitiatorSpec, TargetSpec
from repro.transport import topology as topo
from repro.workloads.collectives import tree_reduction

__all__ = ["build", "describe"]

_SCRATCH_SIZE = 0x4000


def describe() -> str:
    return (
        "binary-tree allreduce of 8 masters through memory scratch slots "
        "on a 4x4 torus (DOR + dateline)"
    )


def build(
    *,
    masters: int = 8,
    block_bytes: int = 256,
    compute_delay: int = 16,
    strict_kernel=None,
) -> NocSoc:
    if masters * block_bytes > _SCRATCH_SIZE:
        raise ValueError(
            f"collective_allreduce: {masters} x {block_bytes}B slots "
            f"overflow the {_SCRATCH_SIZE:#x}-byte scratch memory"
        )
    names = [f"node{index}" for index in range(masters)]
    engines = tree_reduction(
        names,
        scratch_base=0,
        block_bytes=block_bytes,
        compute_delay=compute_delay,
        allreduce=True,
    )
    builder = SocBuilder(
        name="collective_allreduce",
        strict_kernel=strict_kernel,
        topology=topo.torus(4, 4, endpoints=masters + 1),
        routing="dor",
        vcs=2,
        vc_policy="dateline",
    )
    for name in names:
        builder.add_initiator(
            InitiatorSpec(
                name, "AXI", engines[name], protocol_kwargs={"id_count": 4}
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
