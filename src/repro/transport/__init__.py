"""The NoC transport layer.

"The transport layer defines information format and transport rules
between NIUs … completely transaction unaware" (paper §1).  Everything in
this package sees only flits and packet headers (destination, source,
priority, the LOCK marker, the virtual channel) — never transaction
semantics.  The single, deliberate exception is the legacy LOCK family,
which the paper itself concedes "impacts transport level".

Link-level flow control is not part of this package: a shared queue's
capacity is the ideal zero-latency credit, and the credit loop of a
link that owns wires and clocks lives with that link in the physical
layer (:class:`~repro.phys.link.VcPhysicalLink`).
"""

from repro.transport.flit import Flit, Packetizer, Reassembler
from repro.transport.network import BufferSizingError, Fabric, Network
from repro.transport.qos import AgeArbiter, Arbiter, PriorityArbiter, RoundRobinArbiter
from repro.transport.router import Router
from repro.transport.routing import (
    AdaptiveRoutingTable,
    DatelineVcPolicy,
    EscapeVcPolicy,
    RoutingError,
    VcPolicy,
    compute_adaptive_tables,
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
    "DatelineVcPolicy",
    "EscapeVcPolicy",
    "Fabric",
    "Flit",
    "Network",
    "Packetizer",
    "PriorityArbiter",
    "Reassembler",
    "Router",
    "RoundRobinArbiter",
    "RoutingError",
    "SwitchingMode",
    "Topology",
    "VcPolicy",
    "compute_adaptive_tables",
    "compute_tables",
    "make_vc_policy",
    "router_sort_key",
    "xy_route",
]
