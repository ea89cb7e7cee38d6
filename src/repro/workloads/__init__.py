"""Programmable endpoints: DMA programs, streams, collectives.

The workload layer sits *above* the protocol masters: everything here is
a :class:`~repro.protocols.base.TrafficSource` (or generates them), so
the kernel, NIUs and fabric never know whether a master runs a random
workload or a descriptor-chained DMA program.  The scenario registry
(:func:`register`/:func:`get`/:func:`available`) names complete
ready-to-run SoCs; the built-ins under
:mod:`repro.workloads.scenarios` self-register on import of this
package.
"""

from repro.ip.traffic import TrafficSpec, WorkloadStallError
from repro.workloads.channels import StreamChannel
from repro.workloads.collectives import (
    all_to_all,
    near_neighbor_exchange,
    tree_reduction,
)
from repro.workloads.dma import DmaDescriptor, DmaEngine, DmaProgramError
from repro.workloads.registry import (
    UnknownScenarioError,
    available,
    describe,
    get,
    register,
)
from repro.workloads.streams import stream_pair

# Imported last: registers the built-in scenarios with the registry.
from repro.workloads import scenarios  # noqa: E402  (isort: skip)

__all__ = [
    "DmaDescriptor",
    "DmaEngine",
    "DmaProgramError",
    "StreamChannel",
    "TrafficSpec",
    "UnknownScenarioError",
    "WorkloadStallError",
    "all_to_all",
    "available",
    "describe",
    "get",
    "near_neighbor_exchange",
    "register",
    "scenarios",
    "stream_pair",
    "tree_reduction",
]
