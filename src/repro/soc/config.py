"""Declarative SoC specification records.

Physical-layer configuration is declarative too: a
:class:`~repro.phys.link.LinkSpec` (re-exported here) describes the wires
of one fabric connection class, :class:`~repro.phys.clocking.ClockDomain`
names a GALS clock, and every initiator/target spec can name the clock
``region`` its IP + NIU run in.  Defaults everywhere are the ideal
physical layer — full-width links, one clock domain — which builds a SoC
cycle-identical to one configured with no physical layer at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.checks import Check, check, knob
from repro.core.protocols import FAMILIES
from repro.niu.tag_policy import TagPolicy
from repro.phys.clocking import ClockDomain
from repro.phys.link import LinkSpec
from repro.transport.routing import (
    DatelineVcPolicy,
    EscapeVcPolicy,
    VcPolicy,
)

__all__ = [
    "ClockDomain",
    "DatelineVcPolicy",
    "EscapeVcPolicy",
    "InitiatorSpec",
    "KNOWN_PROTOCOLS",
    "LinkSpec",
    "TargetSpec",
    "VcPolicy",
]

#: Socket families the builder knows how to instantiate.
KNOWN_PROTOCOLS = tuple(FAMILIES)

#: What an ``InitiatorSpec`` refuses when it is made.
INITIATOR_ROWS = (
    Check("protocol", ("protocol",), lambda s: s.protocol in KNOWN_PROTOCOLS,
          lambda s: f"unknown protocol {s.protocol!r}; known: {KNOWN_PROTOCOLS}"),
)


@dataclass
class InitiatorSpec:
    """One master IP + socket + NIU attachment.

    ``traffic`` is a declarative :class:`~repro.ip.traffic.TrafficSpec`,
    built fresh against this initiator's name at every build; the builder
    refuses anything else at build time.  ``protocol_kwargs`` feed the master model
    constructor (e.g. OCP ``threads``, AXI ``id_count``); ``policy``
    overrides the NIU's default tag policy (benchmarks sweep this).

    ``region`` names the clock domain (a key of the builder's
    ``clock_domains=`` mapping) that the master IP, its NIU and its
    injection/ejection ports run in.  ``None`` means the kernel reference
    clock.  If the region differs from the fabric's domain, the
    NIU↔router links get a CDC synchronizer automatically — the
    transaction layer never notices.
    """

    name: str
    protocol: str
    traffic: object = None
    policy: Optional[TagPolicy] = None
    protocol_kwargs: Dict[str, object] = field(default_factory=dict)
    region: Optional[str] = None

    def __post_init__(self) -> None:
        self.protocol = self.protocol.upper()
        check(f"initiator {self.name!r}", self, INITIATOR_ROWS)


#: What a ``TargetSpec`` refuses when it is made: a knob that would wedge
#: the target NIU (``max_outstanding`` < 1 never serves) or that the
#: memory would silently clamp (negative latencies).
TARGET_ROWS = (
    knob("size", lambda t: t.size > 0, "> 0"),
    knob("read_latency", lambda t: t.read_latency >= 0, ">= 0"),
    knob("write_latency", lambda t: t.write_latency >= 0, ">= 0"),
    knob("per_beat_cycles", lambda t: t.per_beat_cycles >= 0, ">= 0"),
    knob("max_outstanding", lambda t: t.max_outstanding >= 1, ">= 1"),
    knob("error_ranges", lambda t: all(
        len(r) == 2 and r[0] >= 0 and r[1] >= 1 for r in t.error_ranges or ()
    ), "(offset >= 0, size >= 1) pairs"),
)


@dataclass
class TargetSpec:
    """One target IP (memory-like) + target NIU attachment.

    ``base=None`` lets the builder pack targets contiguously in the
    address map; an explicit ``base`` must not overlap any other target's
    range (the builder validates and raises).  ``region`` is the clock
    domain of the memory + target NIU, as for :class:`InitiatorSpec`.
    """

    name: str
    size: int = 1 << 16
    base: Optional[int] = None
    read_latency: int = 4
    write_latency: int = 2
    per_beat_cycles: int = 0
    max_outstanding: int = 4
    error_ranges: Optional[list] = None
    region: Optional[str] = None

    def __post_init__(self) -> None:
        check(f"target {self.name!r}", self, TARGET_ROWS)
