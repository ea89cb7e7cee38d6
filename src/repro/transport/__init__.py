"""The NoC transport layer.

"The transport layer defines information format and transport rules
between NIUs … completely transaction unaware" (paper §1).  Everything in
this package sees only flits and packet headers (destination, source,
priority, the LOCK marker, the virtual channel) — never transaction
semantics.  The single, deliberate exception is the legacy LOCK family,
which the paper itself concedes "impacts transport level".
"""

from repro.transport.faults import (
    FabricPartitionError,
    FaultConfigError,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    NoSurvivingPathError,
    OverlappingFaultWindowError,
    UnknownFaultTargetError,
)
from repro.transport.flit import Flit, Packetizer, Reassembler, flits_for_packet
from repro.transport.flow_control import CreditCounter
from repro.transport.network import BufferSizingError, Fabric, Network
from repro.transport.qos import AgeArbiter, Arbiter, PriorityArbiter, RoundRobinArbiter
from repro.transport.router import Router
from repro.transport.routing import (
    AdaptiveRoutingTable,
    DatelineVcPolicy,
    EscapeVcPolicy,
    PriorityVcPolicy,
    RoutingError,
    VcPolicy,
    compute_adaptive_tables,
    compute_degraded_tables,
    compute_tables,
    make_vc_policy,
    xy_route,
)
from repro.transport.switching import SwitchingMode
from repro.transport.topology import Topology, router_sort_key

__all__ = [
    "AdaptiveRoutingTable",
    "AgeArbiter",
    "Arbiter",
    "BufferSizingError",
    "CreditCounter",
    "DatelineVcPolicy",
    "EscapeVcPolicy",
    "Fabric",
    "FabricPartitionError",
    "FaultConfigError",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "Flit",
    "Network",
    "NoSurvivingPathError",
    "OverlappingFaultWindowError",
    "Packetizer",
    "PriorityArbiter",
    "PriorityVcPolicy",
    "Reassembler",
    "Router",
    "RoundRobinArbiter",
    "RoutingError",
    "SwitchingMode",
    "Topology",
    "UnknownFaultTargetError",
    "VcPolicy",
    "compute_adaptive_tables",
    "compute_degraded_tables",
    "compute_tables",
    "flits_for_packet",
    "make_vc_policy",
    "router_sort_key",
    "xy_route",
]
