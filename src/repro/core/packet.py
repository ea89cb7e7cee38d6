"""The uniform NoC packet format.

The paper's central mechanism: whatever socket a VC speaks, its NIU emits
packets whose header carries a destination (``SlvAddr``), a source
(``MstAddr``) and a ``Tag``.  The switch fabric routes on these three
fields only and never interprets transaction semantics ("the NoC switch
fabric itself is unaware of actual NIU field assignment policies").

Socket-specific features that need information exchanged between NIUs are
added as *optional user-defined bits* (:class:`UserBit`), grown per NoC
configuration — adding a bit widens the packet header but changes nothing
in the transport or physical layers.  :class:`PacketFormat` captures one
such configuration and computes header bit budgets for the area/bandwidth
models.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.transaction import Opcode, ResponseStatus


class PacketKind(enum.Enum):
    REQUEST = "REQ"
    RESPONSE = "RSP"


@dataclass(frozen=True)
class UserBit:
    """One optional, named packet-header bit (a "NoC service" carrier).

    ``width`` > 1 models multi-bit user fields; the exclusive-access
    service of the paper uses exactly one bit.
    """

    name: str
    width: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"user bit {self.name!r}: width must be >= 1")


# Baseline header fields and their widths in bits.  The widths matter
# for *relative* area/bandwidth numbers, not absolute silicon.
_BASE_HEADER_BITS = {
    "kind": 1,  # request / response
    "opcode": 3,  # 7 opcodes
    "slv_addr": 6,  # up to 64 targets
    "mst_addr": 6,  # up to 64 initiators
    "tag": 4,  # up to 16 interleaved transactions per pair
    "offset": 32,  # address offset within target
    "len": 6,  # up to 64 beats
    "size": 3,  # log2(beat bytes)
    "burst": 2,
    "status": 2,
    "priority": 2,
}


@dataclass
class PacketFormat:
    """A concrete packet-format configuration for one NoC instance.

    The format is *customized to the actual set of VCs that plug into the
    NoC* (paper §2): :func:`repro.core.layer.build_layer_config` inspects
    the attached sockets and enables only the user bits they need.
    """

    user_bits: List[UserBit] = field(default_factory=list)
    slv_addr_bits: int = 6
    mst_addr_bits: int = 6
    tag_bits: int = 4

    def __post_init__(self) -> None:
        names = [b.name for b in self.user_bits]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate user bit names: {names}")
        for limit_name in ("slv_addr_bits", "mst_addr_bits", "tag_bits"):
            if getattr(self, limit_name) < 1:
                raise ValueError(f"{limit_name} must be >= 1")

    def has_user_bit(self, name: str) -> bool:
        return any(b.name == name for b in self.user_bits)

    def user_bit(self, name: str) -> UserBit:
        for b in self.user_bits:
            if b.name == name:
                return b
        raise KeyError(f"packet format has no user bit {name!r}")

    def with_user_bit(self, bit: UserBit) -> "PacketFormat":
        """Return a new format extended with ``bit`` (idempotent)."""
        if self.has_user_bit(bit.name):
            return self
        return PacketFormat(
            user_bits=self.user_bits + [bit],
            slv_addr_bits=self.slv_addr_bits,
            mst_addr_bits=self.mst_addr_bits,
            tag_bits=self.tag_bits,
        )

    def header_bits(self) -> int:
        """Total request/response header width in bits."""
        bits = dict(_BASE_HEADER_BITS)
        bits["slv_addr"] = self.slv_addr_bits
        bits["mst_addr"] = self.mst_addr_bits
        bits["tag"] = self.tag_bits
        return sum(bits.values()) + sum(b.width for b in self.user_bits)

    def max_tags(self) -> int:
        return 1 << self.tag_bits

    def max_targets(self) -> int:
        return 1 << self.slv_addr_bits

    def max_initiators(self) -> int:
        return 1 << self.mst_addr_bits

    def describe(self) -> str:
        user = ", ".join(f"{b.name}[{b.width}]" for b in self.user_bits) or "none"
        return (
            f"PacketFormat(header={self.header_bits()}b, "
            f"slv={self.slv_addr_bits}b, mst={self.mst_addr_bits}b, "
            f"tag={self.tag_bits}b, user bits: {user})"
        )


@dataclass
class NocPacket:
    """One transport-layer packet.

    Requests travel initiator-NIU → target-NIU, responses the reverse.
    The transport layer routes requests towards ``slv_addr`` and responses
    towards ``mst_addr``; it reads ``priority`` for QoS and the ``lock``
    marker for legacy LOCK handling (the one transaction family that
    *does* leak into transport, as §3 of the paper concedes) and nothing
    else.
    """

    kind: PacketKind
    opcode: Opcode
    slv_addr: int
    mst_addr: int
    tag: int
    offset: int = 0
    beats: int = 1
    beat_bytes: int = 4
    burst: str = "SINGLE"
    payload: Optional[List[int]] = None
    status: ResponseStatus = ResponseStatus.OKAY
    priority: int = 0
    user: Dict[str, int] = field(default_factory=dict)
    txn_id: int = -1
    injected_cycle: int = -1
    #: Per-(source, destination) injection sequence, stamped by adaptive
    #: planes so the ejection port can restore per-pair FIFO delivery
    #: (-1 on deterministic planes, which need no resequencing).
    fabric_seq: int = -1

    def __post_init__(self) -> None:
        if self.slv_addr < 0 or self.mst_addr < 0:
            raise ValueError("slv_addr/mst_addr must be non-negative")
        if self.tag < 0:
            raise ValueError("tag must be non-negative")
        if self.beats < 1:
            raise ValueError("beats must be >= 1")

    # ------------------------------------------------------------------ #
    # routing view (all the fabric is allowed to look at)
    # ------------------------------------------------------------------ #
    @property
    def route_destination(self) -> int:
        """Node the fabric must deliver this packet to."""
        if self.kind is PacketKind.REQUEST:
            return self.slv_addr
        return self.mst_addr

    @property
    def route_source(self) -> int:
        if self.kind is PacketKind.REQUEST:
            return self.mst_addr
        return self.slv_addr

    @property
    def is_lock_related(self) -> bool:
        """Transport-visible: switches act on LOCK-family packets (§3)."""
        return self.opcode.is_locking

    # ------------------------------------------------------------------ #
    # payload sizing (used by flit segmentation and bandwidth model)
    # ------------------------------------------------------------------ #
    @property
    def payload_beats(self) -> int:
        """Number of data beats this packet carries."""
        if self.kind is PacketKind.REQUEST:
            return self.beats if self.opcode.is_write else 0
        return self.beats if self.opcode.is_read else 0

    def payload_bits(self) -> int:
        return self.payload_beats * self.beat_bytes * 8

    def validate_against(self, fmt: PacketFormat) -> None:
        """Check field ranges against a packet format (NIU egress check)."""
        if self.slv_addr >= fmt.max_targets():
            raise ValueError(
                f"slv_addr {self.slv_addr} exceeds format max {fmt.max_targets()}"
            )
        if self.mst_addr >= fmt.max_initiators():
            raise ValueError(
                f"mst_addr {self.mst_addr} exceeds format max {fmt.max_initiators()}"
            )
        if self.tag >= fmt.max_tags():
            raise ValueError(f"tag {self.tag} exceeds format max {fmt.max_tags()}")
        for name, value in self.user.items():
            bit = fmt.user_bit(name)  # KeyError if the service is not enabled
            if value >= (1 << bit.width):
                raise ValueError(
                    f"user field {name!r} value {value} exceeds {bit.width} bits"
                )

    def make_response(
        self,
        status: ResponseStatus = ResponseStatus.OKAY,
        payload: Optional[List[int]] = None,
        user: Optional[Dict[str, int]] = None,
    ) -> "NocPacket":
        """Build the response packet for this request (target-NIU side)."""
        if self.kind is not PacketKind.REQUEST:
            raise ValueError("can only respond to a request packet")
        return NocPacket(
            kind=PacketKind.RESPONSE,
            opcode=self.opcode,
            slv_addr=self.slv_addr,
            mst_addr=self.mst_addr,
            tag=self.tag,
            offset=self.offset,
            beats=self.beats,
            beat_bytes=self.beat_bytes,
            burst=self.burst,
            payload=payload,
            status=status,
            priority=self.priority,
            user=dict(user) if user else {},
            txn_id=self.txn_id,
        )

    def describe(self) -> str:
        return (
            f"{self.kind.value} {self.opcode.value} slv={self.slv_addr} "
            f"mst={self.mst_addr} tag={self.tag} off={self.offset:#x} "
            f"x{self.beats} prio={self.priority} user={self.user}"
        )
