"""Per-SoC transaction-layer configuration.

Paper §2: "transactions can be customized to the actual set of VCs that
plug into the NoC, without altering the transport and physical layers".
:func:`build_layer_config` is that customization step: it reads the row
(:mod:`repro.core.protocols`) of every socket family attached to a NoC
instance and derives

- the set of :class:`~repro.core.services.NocService` to activate (the
  union of the rows' services; a service no attached socket needs is
  not activated, and there is no other way to activate one),
- the resulting :class:`~repro.core.packet.PacketFormat` (base header +
  the user bits those services need, + any ``extra_user_bits``),
- sizing parameters (tag bits from the largest outstanding-transaction
  budget, slv/mst address bits from the number of nodes).

Benchmark E6 (feature locality) measures exactly which of these artifacts
change when a new socket feature is added — the paper's claim is that the
answer is "the NIU and possibly a packet user bit, nothing else".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Set

from repro.core.packet import PacketFormat, UserBit
from repro.core.protocols import family
from repro.core.services import NocService


def _bits_for(count: int) -> int:
    """Minimum field width to encode ``count`` distinct values (min 1)."""
    return max(1, math.ceil(math.log2(max(2, count))))


@dataclass
class TransactionLayerConfig:
    """One NoC instance's transaction-layer configuration."""

    protocols: List[str]
    services: Set[NocService]
    packet_format: PacketFormat
    initiators: int
    targets: int
    max_outstanding: int

    def requires_transport_support(self) -> List[NocService]:
        """Services that leak below the transaction layer (LOCK only)."""
        return sorted(
            (s for s in self.services if s.touches_transport),
            key=lambda s: s.value,
        )

    def describe(self) -> str:
        return (
            f"TransactionLayer(protocols={sorted(set(self.protocols))}, "
            f"services={sorted(s.value for s in self.services)}, "
            f"{self.packet_format.describe()})"
        )


def build_layer_config(
    protocols: Iterable[str],
    initiators: int,
    targets: int,
    max_outstanding: int = 8,
    extra_user_bits: Iterable[UserBit] = (),
) -> TransactionLayerConfig:
    """Derive the transaction-layer configuration for a set of sockets.

    Parameters
    ----------
    protocols:
        Socket family names of every NIU attached to this NoC
        (e.g. ``["AHB", "AXI", "OCP"]``).  Unknown names raise KeyError so
        configuration errors surface at build time, not mid-simulation.
    initiators, targets:
        Node counts, used to size MstAddr/SlvAddr fields.
    max_outstanding:
        Largest simultaneously-outstanding transaction budget of any NIU;
        sizes the Tag field.
    extra_user_bits:
        The feature-locality experiment's hook (E6): adding a new socket
        feature means passing one more packet bit here and touching the
        corresponding NIU — nothing else.
    """
    rows = [family(p) for p in protocols]
    services: Set[NocService] = set()
    for row in rows:
        services |= row.services

    # SlvAddr/MstAddr carry NoC node addresses; initiator and target NIUs
    # share one endpoint numbering space, so both fields must span it.
    node_bits = _bits_for(initiators + targets)
    fmt = PacketFormat(
        slv_addr_bits=node_bits,
        mst_addr_bits=node_bits,
        tag_bits=_bits_for(max_outstanding),
    )
    for service in sorted(services, key=lambda s: s.value):
        for bit in service.packet_bits:
            fmt = fmt.with_user_bit(bit)
    for bit in extra_user_bits:
        fmt = fmt.with_user_bit(bit)

    return TransactionLayerConfig(
        protocols=[row.name for row in rows],
        services=services,
        packet_format=fmt,
        initiators=initiators,
        targets=targets,
        max_outstanding=max_outstanding,
    )
