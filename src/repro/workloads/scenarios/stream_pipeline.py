"""``stream_pipeline`` — multi-stage streaming pipelines with credit flow.

Two parallel pipelines of four stages each.  Adjacent stages share a
ring buffer of ``_DEPTH`` bursts in memory, coupled by two channels:

- ``data`` — the producer puts one token per completed write burst; the
  consumer's read burst ``b`` waits for token ``b + 1`` (read-after-write
  ordering over the shared buffer);
- ``credit`` — preloaded with ``_DEPTH`` tokens; the producer's write
  burst ``b`` waits for credit token ``b + 1`` and the consumer returns
  one credit per completed read.  The producer can therefore run at
  most ``_DEPTH`` bursts ahead — credit-based backpressure enforced by
  the endpoints themselves, with zero fabric-level flow control.

A middle stage additionally threads a private ``work`` channel from its
read descriptor to its write descriptor, so store burst ``b`` waits on
*both* its own fetch ``b`` and a downstream credit — the tuple
wait/signal form.
"""

from __future__ import annotations

from functools import partial

from repro.ip.traffic import TrafficSpec
from repro.soc.builder import NocSoc, SocBuilder
from repro.soc.config import InitiatorSpec, TargetSpec
from repro.workloads.channels import StreamChannel
from repro.workloads.dma import DmaDescriptor

__all__ = ["build"]

_PIPELINES = 2
_STAGES = 4
_TOTAL_BURSTS = 24
_DEPTH = 4
_BUF_SIZE = 0x4000


def _pipeline_programs(pipe: int):
    """Programs for one pipeline, by stage name; stage s reads buffer
    s-1, writes buffer s.  Each pipeline has a buffer memory of its own."""
    footprint = 8 * 4 * _DEPTH  # _DEPTH bursts of 8 beats x 4 bytes
    buffer_base = [pipe * _BUF_SIZE + stage * footprint
                   for stage in range(_STAGES - 1)]
    data = [StreamChannel(f"p{pipe}.b{stage}.data") for stage in range(_STAGES - 1)]
    credit = [StreamChannel(f"p{pipe}.b{stage}.credit", initial=_DEPTH)
              for stage in range(_STAGES - 1)]
    burst = partial(DmaDescriptor, beats=8, beat_bytes=4,
                    bursts=_TOTAL_BURSTS, ring=_DEPTH)
    programs = {}
    for stage in range(_STAGES):
        name = f"p{pipe}s{stage}"
        if stage == 0:
            program = [burst("write", address=buffer_base[0], wait=credit[0],
                             signal=data[0], pattern=pipe * 101)]
        elif stage == _STAGES - 1:
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
        programs[name] = program
    return programs


def build(*, strict_kernel=None) -> NocSoc:
    builder = SocBuilder(name="stream_pipeline", strict_kernel=strict_kernel)
    for pipe in range(_PIPELINES):
        for name, program in _pipeline_programs(pipe).items():
            builder.add_initiator(
                InitiatorSpec(name, "AXI", TrafficSpec(kind="dma", program=program),
                              protocol_kwargs={"id_count": 4})
            )
    builder.add_target(
        TargetSpec("buf0", size=_BUF_SIZE, read_latency=2, write_latency=1)
    )
    builder.add_target(
        TargetSpec("buf1", size=_BUF_SIZE, read_latency=2, write_latency=1)
    )
    return builder.build()
