"""Producer/consumer stream pairs with credit backpressure.

A stream is two DMA engines wired through two channels:

- ``data`` — the producer puts one token per completed write burst; the
  consumer's read burst ``b`` waits for token ``b + 1`` (read-after-write
  ordering over the shared buffer);
- ``credit`` — preloaded with ``depth`` bursts worth of tokens; the
  producer's write burst ``b`` waits for credit token ``b + 1`` and the
  consumer returns one credit per completed read.  The producer can
  therefore run at most ``depth`` bursts ahead — classic credit-based
  backpressure, enforced by the endpoints themselves rather than by
  fabric buffering.

Both engines address a shared ring buffer of ``depth`` bursts, so the
memory footprint is the window, not the whole stream.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Tuple

from repro.workloads.channels import StreamChannel
from repro.workloads.dma import DmaDescriptor, DmaEngine

__all__ = ["stream_pair"]


def stream_pair(
    producer: str,
    consumer: str,
    *,
    buffer_base: int,
    total_bursts: int = 32,
    depth: int = 4,
    burst_beats: int = 8,
    beat_bytes: int = 4,
    priority: int = 0,
    pattern: int = 0,
) -> Tuple[Dict[str, DmaEngine], Dict[str, StreamChannel]]:
    """Build the two engines of one stream.

    Returns ``({producer: engine, consumer: engine}, {"data": ch,
    "credit": ch})`` — the engines go one per
    ``InitiatorSpec(traffic=...)``.
    """
    if total_bursts < 1 or depth < 1:
        raise ValueError("total_bursts and depth must be >= 1")
    data = StreamChannel(f"{producer}->{consumer}.data")
    credit = StreamChannel(f"{producer}->{consumer}.credit", initial=depth)
    burst = partial(DmaDescriptor, address=buffer_base, beats=burst_beats,
                    beat_bytes=beat_bytes, bursts=total_bursts,
                    ring=min(depth, total_bursts), priority=priority)
    prod = DmaEngine(producer, [burst("write", wait=credit, signal=data,
                                      pattern=pattern)], priority=priority)
    cons = DmaEngine(consumer, [burst("read", wait=data, signal=credit)],
                     priority=priority)
    engines = {producer: prod, consumer: cons}
    channels = {"data": data, "credit": credit}
    return engines, channels
