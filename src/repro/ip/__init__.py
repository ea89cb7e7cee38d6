"""IP block models: traffic-generating masters and memory-like targets.

The paper's SoC contains off-the-shelf VCs; we substitute synthetic but
protocol-accurate workloads: a :class:`TrafficSpec` describes an intent
stream and builds its source, protocol master models turn the intents
into socket-legal request streams, and :class:`MemoryDevice` terminates
them behind target NIUs.
"""

from repro.ip.slaves import MemoryDevice
from repro.ip.traffic import (
    TRAFFIC_KINDS,
    TrafficSeedError,
    TrafficSpec,
    WorkloadStallError,
)

__all__ = [
    "MemoryDevice",
    "TRAFFIC_KINDS",
    "TrafficSeedError",
    "TrafficSpec",
    "WorkloadStallError",
]
