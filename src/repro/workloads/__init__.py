"""Programmable endpoints: DMA programs and the stream channels they sync on.

The workload layer sits *above* the protocol masters: a DMA program is
the ``program`` of a ``TrafficSpec(kind="dma")``, which builds a
:class:`~repro.protocols.base.TrafficSource`, so the kernel, NIUs and
fabric never know whether a master runs a random workload or a
descriptor-chained DMA program.  Stream credit loops and collectives are
descriptor programs that declare :class:`StreamChannel` tokens; the
complete SoCs built from them are the modules of
:mod:`repro.workloads.scenarios`, each one fixed SoC with a ``build()``.
"""

from repro.ip.traffic import TrafficSpec, WorkloadStallError
from repro.workloads.channels import StreamChannel
from repro.workloads.dma import DmaDescriptor, DmaProgramError

__all__ = [
    "DmaDescriptor",
    "DmaProgramError",
    "StreamChannel",
    "TrafficSpec",
    "WorkloadStallError",
]
