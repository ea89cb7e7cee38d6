"""The NoC transaction layer — the paper's primary contribution.

This package defines what IP blocks see when they plug into the NoC:

- :mod:`repro.core.transaction` — protocol-neutral transaction primitives
  (LOAD, STORE, the READEX / STORE_COND_LOCKED pair, exclusive variants,
  bursts);
- :mod:`repro.core.packet` — the uniform packet format carrying
  ``SlvAddr`` / ``MstAddr`` / ``Tag`` plus optional user-defined bits;
- :mod:`repro.core.ordering` — the three ordering models the layer must
  absorb (fully-ordered, threaded, ID-based) and a scoreboard that checks
  observed response orders against them;
- :mod:`repro.core.services` — "NoC services" such as exclusive-access
  monitors activated per NoC configuration;
- :mod:`repro.core.protocols` — one row per socket family (ordering
  model, services, default NIU tag policy, gate-model front end), read
  by every layer that needs to know about a family;
- :mod:`repro.core.address_map` — SoC address decoding to ``SlvAddr``;
- :mod:`repro.core.layer` — the per-SoC transaction-layer configuration
  derived from the set of attached VC sockets.
"""

from repro.core.address_map import AddressMap, AddressRange, DecodeError
from repro.core.layer import TransactionLayerConfig, build_layer_config
from repro.core.ordering import (
    OrderingModel,
    OrderingChecker,
    OrderingViolation,
)
from repro.core.packet import NocPacket, PacketFormat, PacketKind, UserBit
from repro.core.services import (
    ExclusiveMonitor,
    ExclusiveResult,
    LockManager,
    NocService,
)
from repro.core.transaction import (
    BurstType,
    Opcode,
    ResponseStatus,
    Transaction,
)

__all__ = [
    "AddressMap",
    "AddressRange",
    "BurstType",
    "DecodeError",
    "ExclusiveMonitor",
    "ExclusiveResult",
    "LockManager",
    "NocPacket",
    "NocService",
    "Opcode",
    "OrderingChecker",
    "OrderingModel",
    "OrderingViolation",
    "PacketFormat",
    "PacketKind",
    "ResponseStatus",
    "Transaction",
    "TransactionLayerConfig",
    "UserBit",
    "build_layer_config",
]
