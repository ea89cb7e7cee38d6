"""Programmable endpoints: DMA programs, streams, collectives.

The workload layer sits *above* the protocol masters: everything here is
a :class:`~repro.protocols.base.TrafficSource` (or generates them), so
the kernel, NIUs and fabric never know whether a master runs a random
workload or a descriptor-chained DMA program.  Complete ready-to-run
SoCs built from them are the modules of
:mod:`repro.workloads.scenarios`, each with a ``build()``.
"""

from repro.ip.traffic import TrafficSpec, WorkloadStallError
from repro.workloads.channels import StreamChannel
from repro.workloads.collectives import tree_reduction
from repro.workloads.dma import DmaDescriptor, DmaEngine, DmaProgramError
from repro.workloads.streams import stream_pair

__all__ = [
    "DmaDescriptor",
    "DmaEngine",
    "DmaProgramError",
    "StreamChannel",
    "TrafficSpec",
    "WorkloadStallError",
    "stream_pair",
    "tree_reduction",
]
