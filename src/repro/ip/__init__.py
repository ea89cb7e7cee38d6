"""IP block models: traffic-generating masters and memory-like targets.

The paper's SoC contains off-the-shelf VCs; we substitute synthetic but
protocol-accurate workloads: traffic sources produce abstract intents,
protocol master models turn them into socket-legal request streams, and
:class:`~repro.ip.slaves.MemoryDevice` terminates them behind target
NIUs.
"""

from repro.ip.slaves import MemoryDevice
from repro.ip.traffic import (
    TRAFFIC_KINDS,
    DependentTraffic,
    PoissonTraffic,
    ScriptedTraffic,
    StreamTraffic,
    SyncWorkload,
    TrafficSeedError,
    TrafficSpec,
    WorkloadStallError,
)

__all__ = [
    "DependentTraffic",
    "MemoryDevice",
    "PoissonTraffic",
    "ScriptedTraffic",
    "StreamTraffic",
    "SyncWorkload",
    "TRAFFIC_KINDS",
    "TrafficSeedError",
    "TrafficSpec",
    "WorkloadStallError",
]
