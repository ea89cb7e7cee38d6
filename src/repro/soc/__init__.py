"""SoC assembly: declarative specs → runnable simulated systems.

:class:`~repro.soc.builder.SocBuilder` produces a Fig-1 style system — a
layered NoC with one NIU per socket.  The same specs can be handed to
:func:`~repro.bus.shared_bus.build_bus_soc` to produce the Fig-2
baseline — a reference-socket bus with per-protocol bridges — which is
how benchmark E1 compares the two architectures on identical workloads.
"""

from repro.soc.builder import NocSoc, SocBuilder
from repro.soc.config import (
    ClockDomain,
    EscapeVcPolicy,
    InitiatorSpec,
    LinkSpec,
    TargetSpec,
)

__all__ = [
    "ClockDomain",
    "EscapeVcPolicy",
    "InitiatorSpec",
    "LinkSpec",
    "NocSoc",
    "SocBuilder",
    "TargetSpec",
]
