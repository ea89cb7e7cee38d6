"""``stream_pipeline`` — multi-stage streaming pipelines with credit flow.

Two parallel pipelines of four stages each.  Adjacent stages share a
ring buffer in memory, coupled by a ``data``/``credit`` channel pair
(see :mod:`repro.workloads.streams`); a middle stage additionally
threads a private ``work`` channel from its read descriptor to its write
descriptor, so store burst ``b`` waits on *both* its own fetch ``b`` and
a downstream credit — the tuple wait/signal form.  End-to-end the
pipeline self-throttles to ``depth`` bursts in flight per hop with zero
fabric-level flow control.
"""

from __future__ import annotations

from functools import partial

from repro.soc.builder import NocSoc, SocBuilder
from repro.soc.config import InitiatorSpec, TargetSpec
from repro.workloads.channels import StreamChannel
from repro.workloads.dma import DmaDescriptor, DmaEngine

__all__ = ["build"]

_BUF_SIZE = 0x4000


def _pipeline_engines(
    pipe: int,
    stages: int,
    total_bursts: int,
    depth: int,
    burst_beats: int,
    beat_bytes: int,
):
    """Engines for one pipeline; stage s reads buffer s-1, writes buffer s."""
    ring = min(depth, total_bursts)
    footprint = burst_beats * beat_bytes * ring
    # Pipelines alternate between the two buffer memories; extra
    # pipelines on the same memory stack their buffers above the first's.
    region = (pipe % 2) * _BUF_SIZE + (pipe // 2) * (stages - 1) * footprint
    buffer_base = [region + stage * footprint for stage in range(stages - 1)]
    data = [StreamChannel(f"p{pipe}.b{stage}.data") for stage in range(stages - 1)]
    credit = [StreamChannel(f"p{pipe}.b{stage}.credit", initial=depth)
              for stage in range(stages - 1)]
    burst = partial(DmaDescriptor, beats=burst_beats, beat_bytes=beat_bytes,
                    bursts=total_bursts, ring=ring)
    engines = {}
    for stage in range(stages):
        name = f"p{pipe}s{stage}"
        if stage == 0:
            program = [burst("write", address=buffer_base[0], wait=credit[0],
                             signal=data[0], pattern=pipe * 101)]
        elif stage == stages - 1:
            program = [burst("read", address=buffer_base[stage - 1],
                             wait=data[stage - 1], signal=credit[stage - 1])]
        else:
            work = StreamChannel(f"{name}.work")
            program = [
                burst("read", address=buffer_base[stage - 1], wait=data[stage - 1],
                      signal=(credit[stage - 1], work)),
                burst("write", address=buffer_base[stage], wait=(work, credit[stage]),
                      signal=data[stage], pattern=pipe * 101 + stage),
            ]
        engines[name] = DmaEngine(name, program)
    return engines


def build(
    *,
    pipelines: int = 2,
    stages: int = 4,
    total_bursts: int = 24,
    depth: int = 4,
    burst_beats: int = 8,
    beat_bytes: int = 4,
    strict_kernel=None,
) -> NocSoc:
    if stages < 2:
        raise ValueError("stream_pipeline needs at least two stages")
    engines = {}
    for pipe in range(pipelines):
        engines.update(
            _pipeline_engines(
                pipe, stages, total_bursts, depth, burst_beats, beat_bytes
            )
        )
    builder = SocBuilder(name="stream_pipeline", strict_kernel=strict_kernel)
    for name, engine in engines.items():
        builder.add_initiator(
            InitiatorSpec(name, "AXI", engine, protocol_kwargs={"id_count": 4})
        )
    builder.add_target(
        TargetSpec("buf0", size=_BUF_SIZE, read_latency=2, write_latency=1)
    )
    builder.add_target(
        TargetSpec("buf1", size=_BUF_SIZE, read_latency=2, write_latency=1)
    )
    return builder.build()
