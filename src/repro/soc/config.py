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

from repro.niu.tag_policy import TagPolicy
from repro.phys.clocking import ClockDomain
from repro.phys.link import LinkSpec
from repro.transport.faults import (
    FabricPartitionError,
    FaultConfigError,
    FaultSchedule,
    NoSurvivingPathError,
    OverlappingFaultWindowError,
    UnknownFaultTargetError,
)
from repro.transport.routing import (
    DatelineVcPolicy,
    EscapeVcPolicy,
    PriorityVcPolicy,
    VcPolicy,
)

__all__ = [
    "ClockDomain",
    "DatelineVcPolicy",
    "EscapeVcPolicy",
    "FabricPartitionError",
    "FaultConfigError",
    "FaultSchedule",
    "InitiatorSpec",
    "KNOWN_PROTOCOLS",
    "LinkSpec",
    "NoSurvivingPathError",
    "OverlappingFaultWindowError",
    "PriorityVcPolicy",
    "TargetSpec",
    "UnknownFaultTargetError",
    "VcPolicy",
]

#: Socket families the builder knows how to instantiate.
KNOWN_PROTOCOLS = ("AHB", "AXI", "OCP", "PVCI", "BVCI", "AVCI", "PROPRIETARY")


@dataclass
class InitiatorSpec:
    """One master IP + socket + NIU attachment.

    ``traffic`` is any :class:`~repro.protocols.base.TrafficSource`
    (stateful: one build only) or a declarative
    :class:`~repro.ip.traffic.TrafficSpec` (built fresh against this
    initiator's name at every build); the builder raises at build time
    if it is still ``None``.  ``protocol_kwargs`` feed the master model
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
        if self.protocol not in KNOWN_PROTOCOLS:
            raise ValueError(
                f"initiator {self.name!r}: unknown protocol "
                f"{self.protocol!r}; known: {KNOWN_PROTOCOLS}"
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
        if self.size <= 0:
            raise ValueError(f"target {self.name!r}: size must be > 0")
