"""Socket families: one row each, read by every layer that needs it.

Paper §2: the transaction layer is customised to the set of VC sockets
that plug into the NoC, and a socket-specific feature only impacts the
corresponding NIU.  So what the rest of the stack needs to know about a
family is data, declared once here:

- its native ordering model (§3: fully ordered, threaded, ID-based);
- the NoC services it needs from the transaction layer
  (:func:`repro.core.layer.build_layer_config`);
- its initiator NIU's default tag policy
  (:func:`repro.niu.tag_policy.default_policy`);
- its protocol front end in the gate model (:mod:`repro.niu.gate_count`).

The family's behaviour — its records, its master IP model and the
native side one :class:`~repro.niu.base.InitiatorNiu` (or a bus bridge)
serves its socket with — is its module in :mod:`repro.protocols`; the
master classes are bound to their rows once, in
:data:`repro.soc.builder.MODELS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.core.ordering import OrderingModel
from repro.core.services import NocService


@dataclass(frozen=True)
class SocketFamily:
    """Everything the stack knows about one socket family."""

    name: str
    ordering: OrderingModel
    services: FrozenSet[NocService]
    # The initiator NIU's default TagPolicy.
    tag_bits: int
    max_outstanding: int
    per_stream_outstanding: int
    multi_target: bool
    # Gate-model front end: control FSM gates and channel register bits,
    # calibrated so relative sizes match published bridge/interface IP
    # (AHB < OCP ≈ VCI < AXI).
    fsm_gates: float
    channel_bits: int


_FULL = OrderingModel.FULLY_ORDERED
_THREAD = OrderingModel.THREADED
_ID = OrderingModel.ID_BASED
# AHB masters issue legacy LOCKed sequences; AXI exclusive accesses and
# OCP lazy synchronization share one service.
_LOCK = frozenset({NocService.LEGACY_LOCK})
_EXCL = frozenset({NocService.EXCLUSIVE_ACCESS})
_NONE: FrozenSet[NocService] = frozenset()

#: Socket family name → its row, in the order the builder lists them.
FAMILIES: Dict[str, SocketFamily] = {
    row.name: row
    for row in (
        #            name           order    services tag out per  multi  fsm    bits
        SocketFamily("AHB",         _FULL,   _LOCK,   1,  1,  1,   False, 900.0,  110),
        SocketFamily("AXI",         _ID,     _EXCL,   4,  8,  4,   True,  1800.0, 220),
        SocketFamily("OCP",         _THREAD, _EXCL,   2,  8,  4,   True,  1200.0, 140),
        SocketFamily("PVCI",        _FULL,   _NONE,   1,  1,  1,   False, 600.0,  80),
        SocketFamily("BVCI",        _FULL,   _NONE,   1,  4,  4,   False, 1000.0, 120),
        SocketFamily("AVCI",        _ID,     _NONE,   3,  8,  4,   True,  1400.0, 150),
        SocketFamily("PROPRIETARY", _FULL,   _NONE,   1,  2,  2,   False, 500.0,  70),
    )
}


def family(name: str) -> SocketFamily:
    """The row of socket family ``name`` (case-insensitive)."""
    try:
        return FAMILIES[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown socket family {name!r}; known: {list(FAMILIES)}"
        ) from None
