"""Feature-coverage matrices: what survives a bridge vs. an NIU.

Paper §2: bridges "do not support the full set of VC transactions
because they are limited by the interconnect protocol and physical
design".  These tables make that loss explicit and benchmark E8 prints
them.  Classification per (protocol feature, attachment):

- ``NATIVE`` — carried with full semantics;
- ``EMULATED`` — functionally preserved but with degraded behaviour
  (e.g. non-blocking exclusives emulated by blocking bus locks);
- ``LOST`` — semantics silently narrowed or unavailable.
"""

from __future__ import annotations

import enum
from typing import Dict, List


class FeatureSupport(enum.Enum):
    NATIVE = "NATIVE"
    EMULATED = "EMULATED"
    LOST = "LOST"

    @property
    def score(self) -> float:
        return {"NATIVE": 1.0, "EMULATED": 0.5, "LOST": 0.0}[self.value]


#: Features exercised by the workloads, per protocol.
PROTOCOL_FEATURES: Dict[str, List[str]] = {
    "AHB": ["bursts", "locked_sequences", "full_ordering"],
    "AXI": [
        "bursts",
        "out_of_order_ids",
        "independent_rw_channels",
        "exclusive_access",
        "qos_signalling",
    ],
    "OCP": [
        "bursts",
        "threads",
        "posted_writes",
        "lazy_synchronization",
    ],
    "PVCI": ["bursts", "full_ordering"],
    "BVCI": ["bursts", "full_ordering", "locked_sequences", "pipelining"],
    "AVCI": ["bursts", "pipelining", "out_of_order_ids"],
    "PROPRIETARY": ["bursts", "posted_writes", "fence"],
}

#: NoC NIU attachment: the transaction layer was *designed* for the
#: union of socket features, so everything is native (paper's claim).
NIU_COVERAGE: Dict[str, Dict[str, FeatureSupport]] = {
    protocol: {feature: FeatureSupport.NATIVE for feature in features}
    for protocol, features in PROTOCOL_FEATURES.items()
}

#: Bridge-to-reference-bus attachment.  The reference socket is the
#: AHB-flavoured bus of :mod:`repro.bus.shared_bus`: single outstanding
#: transfer, in-order, bus locking, INCR/WRAP bursts <= 16 beats,
#: acknowledged writes only, no threads/IDs/QoS.
BRIDGE_COVERAGE: Dict[str, Dict[str, FeatureSupport]] = {
    "AHB": {
        "bursts": FeatureSupport.NATIVE,
        "locked_sequences": FeatureSupport.NATIVE,
        "full_ordering": FeatureSupport.NATIVE,
    },
    "AXI": {
        "bursts": FeatureSupport.EMULATED,  # FIXED bursts split to singles
        "out_of_order_ids": FeatureSupport.LOST,  # serialized to one stream
        "independent_rw_channels": FeatureSupport.LOST,  # one bus port
        "exclusive_access": FeatureSupport.EMULATED,  # via blocking bus lock
        "qos_signalling": FeatureSupport.LOST,  # bus arbiter ignores AxQOS
    },
    "OCP": {
        "bursts": FeatureSupport.NATIVE,
        "threads": FeatureSupport.LOST,  # serialized to one stream
        "posted_writes": FeatureSupport.EMULATED,  # acknowledged on the bus
        "lazy_synchronization": FeatureSupport.EMULATED,  # blocking lock
    },
    "PVCI": {
        "bursts": FeatureSupport.NATIVE,
        "full_ordering": FeatureSupport.NATIVE,
    },
    "BVCI": {
        "bursts": FeatureSupport.NATIVE,
        "full_ordering": FeatureSupport.NATIVE,
        "locked_sequences": FeatureSupport.NATIVE,
        "pipelining": FeatureSupport.LOST,  # one outstanding on the bus
    },
    "AVCI": {
        "bursts": FeatureSupport.NATIVE,
        "pipelining": FeatureSupport.LOST,
        "out_of_order_ids": FeatureSupport.LOST,
    },
    "PROPRIETARY": {
        "bursts": FeatureSupport.NATIVE,
        "posted_writes": FeatureSupport.EMULATED,
        "fence": FeatureSupport.EMULATED,  # trivial once serialized
    },
}


def coverage_matrix(attachment: str) -> Dict[str, Dict[str, FeatureSupport]]:
    """``attachment`` is ``"niu"`` or ``"bridge"``."""
    if attachment == "niu":
        return NIU_COVERAGE
    if attachment == "bridge":
        return BRIDGE_COVERAGE
    raise ValueError(f"unknown attachment {attachment!r} (niu|bridge)")


def coverage_score(protocol: str, attachment: str) -> float:
    """Mean feature score in [0, 1] for one protocol and attachment."""
    matrix = coverage_matrix(attachment)
    features = matrix[protocol.upper()]
    return sum(s.score for s in features.values()) / len(features)


def format_matrix(attachment: str) -> str:
    """Printable matrix for the paper-claim benches."""
    matrix = coverage_matrix(attachment)
    lines = [f"feature coverage via {attachment.upper()}:"]
    for protocol in sorted(matrix):
        entries = ", ".join(
            f"{feat}={sup.value}" for feat, sup in sorted(matrix[protocol].items())
        )
        lines.append(
            f"  {protocol:<12} score={coverage_score(protocol, attachment):.2f}"
            f"  ({entries})"
        )
    return "\n".join(lines)
