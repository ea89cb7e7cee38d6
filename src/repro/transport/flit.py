"""Flits: the transport layer's unit of transfer.

A packet is segmented into a head flit (carrying the routing header) and
zero or more body flits, the last of which is marked tail.  A packet with
no payload is a single flit that is both head and tail.  The fabric moves
one flit per port per cycle; only the head flit's routing fields are ever
inspected — the transaction payload rides opaquely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.packet import NocPacket, PacketFormat


@dataclass(slots=True)
class Flit:
    """One flit.  ``packet`` is carried on the head flit only.

    ``vc`` is the virtual channel the flit currently travels on — assigned
    per packet at injection (default 0, or by a pluggable VC-selection
    policy) and retagged hop by hop when a router's VC-allocation stage
    moves the packet to a different output VC (e.g. the dateline policy
    on rings/tori).  Single-VC fabrics leave it at 0 throughout.
    """

    packet_id: int
    seq: int
    count: int  # total flits in this packet
    dest: int
    src: int
    priority: int
    lock_related: bool
    packet: Optional[NocPacket] = None
    vc: int = 0

    @property
    def is_head(self) -> bool:
        return self.seq == 0

    @property
    def is_tail(self) -> bool:
        return self.seq == self.count - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        marks = ("H" if self.is_head else "") + ("T" if self.is_tail else "")
        return (
            f"<Flit p{self.packet_id}.{self.seq}/{self.count}{marks} "
            f"dest={self.dest} prio={self.priority} vc={self.vc}>"
        )


def flit_count(packet: NocPacket, flit_payload_bits: int) -> int:
    """The one flit-count formula, for widths the caller has checked: a
    head flit plus the payload in ``flit_payload_bits``-wide body flits."""
    return 1 - (-packet.payload_bits() // flit_payload_bits)


class Packetizer:
    """Segments :class:`NocPacket` objects into flit sequences."""

    def __init__(
        self,
        flit_payload_bits: int = 128,
        packet_format: Optional[PacketFormat] = None,
    ) -> None:
        self.flit_payload_bits = flit_payload_bits
        self.packet_format = packet_format
        header = packet_format.header_bits() if packet_format else 64
        if header > flit_payload_bits:
            raise ValueError(
                f"packet header ({header}b) exceeds flit width "
                f"({flit_payload_bits}b)"
            )
        self._header_bits = header

    @property
    def flit_bits(self) -> int:
        """Wire width of one flit (header + payload) — what the physical
        layer serializes into phits."""
        return self._header_bits + self.flit_payload_bits

    def segment(self, packet: NocPacket, packet_id: int, vc: int = 0) -> List[Flit]:
        """``packet``'s flits, tagged ``packet_id`` (the injection port
        draws it from its SoC's packet-id stream) and ``vc``."""
        if self.packet_format is not None:
            packet.validate_against(self.packet_format)
        count = flit_count(packet, self.flit_payload_bits)
        # The routing header is per packet: evaluate its properties once,
        # not once per flit.
        dest = packet.route_destination
        src = packet.route_source
        priority = packet.priority
        lock_related = packet.is_lock_related
        flits = [
            Flit(
                packet_id=packet_id,
                seq=seq,
                count=count,
                dest=dest,
                src=src,
                priority=priority,
                lock_related=lock_related,
                vc=vc,
            )
            for seq in range(count)
        ]
        flits[0].packet = packet  # carried on the head flit only
        return flits


class ReassemblyError(RuntimeError):
    """Flit stream violated head/body/tail framing."""


class Reassembler:
    """Rebuilds packets from an in-order flit stream (one link's worth).

    Links never interleave flits of different packets (wormhole keeps a
    packet contiguous per channel), so reassembly is a simple framing
    check; interleaving is a fabric bug that this class turns into a loud
    :class:`ReassemblyError`.
    """

    def __init__(self, name: str = "reassembler") -> None:
        self.name = name
        self._current: Optional[Flit] = None  # head of in-progress packet
        self._received = 0
        self.packets_out = 0

    def accept(self, flit: Flit) -> Optional[NocPacket]:
        """Feed one flit; returns a completed packet on tail, else None."""
        seq = flit.seq
        if self._current is None:
            if seq != 0:
                raise ReassemblyError(
                    f"{self.name}: body flit {flit!r} without a head"
                )
            self._current = flit
            self._received = 1
        else:
            if seq == 0:
                raise ReassemblyError(
                    f"{self.name}: head flit {flit!r} while packet "
                    f"{self._current.packet_id} is incomplete"
                )
            if flit.packet_id != self._current.packet_id:
                raise ReassemblyError(
                    f"{self.name}: interleaved flit {flit!r} inside packet "
                    f"{self._current.packet_id}"
                )
            self._received += 1
        if seq == flit.count - 1:
            if self._received != self._current.count:
                raise ReassemblyError(
                    f"{self.name}: packet {self._current.packet_id} closed "
                    f"after {self._received}/{self._current.count} flits"
                )
            packet = self._current.packet
            assert packet is not None
            self._current = None
            self._received = 0
            self.packets_out += 1
            return packet
        return None
