"""Protocol-neutral transaction primitives.

Every VC socket (AHB, AXI, OCP, VCI, proprietary) is translated by its NIU
into instances of :class:`Transaction`; a response travels back as a
:class:`ResponseStatus` and the read data.  The vocabulary is the union of
what the supported sockets can express — the paper's point is that this
union is small enough to be carried by one packet format once ordering
and synchronization are handled by field-assignment policies and
optional user bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Opcode(enum.Enum):
    """Transaction-layer operation codes.

    ``LOAD``/``STORE`` are the ordinary read/write primitives.
    ``STORE_POSTED`` is a write without a response (OCP posted writes,
    AHB bufferable writes).  ``READEX`` opens and ``STORE_COND_LOCKED``
    closes the *blocking* legacy synchronization, the one locked pair
    every socket's locked transfer translates into; exclusive
    (non-blocking) synchronization reuses ``LOAD``/``STORE`` with the
    ``excl`` user bit set — exactly the paper's single-bit "NoC
    service".

    Each member's families are plain attributes, set once as the class
    is created: ``is_write``, ``is_read``, ``expects_response`` (posted
    stores complete at the NIU; everything else gets a reply) and
    ``is_locking`` (the legacy blocking-synchronization family, paper
    §3).
    """

    LOAD = "LOAD"
    STORE = "STORE"
    STORE_POSTED = "STORE_POSTED"
    READEX = "READEX"
    STORE_COND_LOCKED = "STORE_COND_LOCKED"

    def __init__(self, value: str) -> None:
        self.is_write = value in ("STORE", "STORE_POSTED", "STORE_COND_LOCKED")
        self.is_read = value in ("LOAD", "READEX")
        self.expects_response = value != "STORE_POSTED"
        self.is_locking = value in ("READEX", "STORE_COND_LOCKED")


class BurstType(enum.Enum):
    """Burst address sequences, union of AHB/AXI/OCP/VCI burst kinds."""

    SINGLE = "SINGLE"
    INCR = "INCR"
    WRAP = "WRAP"
    FIXED = "FIXED"  # AXI FIFO-style bursts
    STREAM = "STREAM"  # OCP STRM

    def addresses(self, start: int, beats: int, beat_bytes: int) -> List[int]:
        """Byte address of every beat in the burst.

        WRAP wraps at the burst-size boundary as AHB/AXI define it.
        FIXED/STREAM repeatedly target the start address.
        """
        if beats < 1:
            raise ValueError(f"burst needs >= 1 beat, got {beats}")
        if self in (BurstType.FIXED, BurstType.STREAM):
            return [start] * beats
        if self is BurstType.SINGLE:
            if beats != 1:
                raise ValueError(f"SINGLE burst must have 1 beat, got {beats}")
            return [start]
        if self is BurstType.INCR:
            return [start + i * beat_bytes for i in range(beats)]
        # WRAP: total size must be a power of two multiple of the beat size
        total = beats * beat_bytes
        if total & (total - 1):
            raise ValueError(f"WRAP burst size {total} is not a power of two")
        base = (start // total) * total
        return [base + ((start - base) + i * beat_bytes) % total for i in range(beats)]


class ResponseStatus(enum.Enum):
    """Completion status carried in responses, superset of socket statuses."""

    OKAY = "OKAY"
    EXOKAY = "EXOKAY"  # exclusive success (AXI EXOKAY / OCP SRMD ok)
    SLVERR = "SLVERR"  # target signalled an error
    DECERR = "DECERR"  # no target decoded for the address

    def __init__(self, value: str) -> None:
        self.is_error = value in ("SLVERR", "DECERR")


#: Per-beat widths, in bytes, a transaction may carry.
BEAT_WIDTHS = (1, 2, 4, 8, 16)


@dataclass
class Transaction:
    """One transaction-layer operation emitted by an initiator NIU.

    Attributes
    ----------
    opcode, address, burst:
        What to do and where.  ``address`` is a global SoC byte address;
        the address map resolves it to (``SlvAddr``, offset).
    beats, beat_bytes:
        Burst length and per-beat width.
    data:
        Write payload, one int per beat (reads carry ``None``).
    master, thread, txn_tag:
        Socket-side identity: the initiating master's name, the OCP
        thread / AXI ID it used (0 for single-threaded sockets), and the
        protocol-level transaction tag if any.
    excl:
        Requests the exclusive-access NoC service (AXI exclusive /
        OCP lazy synchronization) — becomes the single user bit.
    priority:
        QoS class, 0 = lowest.  Purely a transport-layer hint.
    txn_id:
        Simulation identifier (tracing / latency), unique within its SoC:
        the source that issues the transaction draws it from the
        simulator's ``txn_ids`` stream.  ``-1`` until then.
    meta:
        Socket-specific scratch (e.g. AHB HPROT) that the NIU round-trips.
    """

    opcode: Opcode
    address: int
    beats: int = 1
    beat_bytes: int = 4
    burst: BurstType = BurstType.SINGLE
    data: Optional[List[int]] = None
    master: str = ""
    thread: int = 0
    txn_tag: int = 0
    excl: bool = False
    priority: int = 0
    txn_id: int = -1
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"negative address {self.address:#x}")
        if self.beats < 1:
            raise ValueError(f"beats must be >= 1, got {self.beats}")
        if self.beat_bytes not in BEAT_WIDTHS:
            raise ValueError(f"unsupported beat width {self.beat_bytes}")
        if self.beats == 1 and self.burst in (BurstType.INCR, BurstType.WRAP):
            self.burst = BurstType.SINGLE
        if self.opcode.is_write:
            if self.data is None:
                raise ValueError(f"{self.opcode.value} requires data")
            if len(self.data) != self.beats:
                raise ValueError(
                    f"{self.opcode.value}: {len(self.data)} data beats "
                    f"for a {self.beats}-beat burst"
                )
        if self.excl and self.opcode.is_locking:
            raise ValueError("excl bit is exclusive with legacy locking opcodes")

    def beat_addresses(self) -> List[int]:
        return self.burst.addresses(self.address, self.beats, self.beat_bytes)

    @property
    def total_bytes(self) -> int:
        return self.beats * self.beat_bytes

    def describe(self) -> str:
        return (
            f"{self.opcode.value} @{self.address:#010x} x{self.beats}"
            f"({self.burst.value}) master={self.master} thread={self.thread}"
            f"{' EXCL' if self.excl else ''}"
        )


def make_read(
    address: int,
    beats: int = 1,
    beat_bytes: int = 4,
    burst: BurstType = BurstType.INCR,
    **kwargs,
) -> Transaction:
    """Convenience constructor used throughout tests and examples."""
    if beats == 1:
        burst = BurstType.SINGLE
    return Transaction(
        opcode=Opcode.LOAD,
        address=address,
        beats=beats,
        beat_bytes=beat_bytes,
        burst=burst,
        **kwargs,
    )


def make_write(
    address: int,
    data: List[int],
    beat_bytes: int = 4,
    burst: BurstType = BurstType.INCR,
    posted: bool = False,
    **kwargs,
) -> Transaction:
    """Convenience constructor for (posted) writes."""
    if len(data) == 1:
        burst = BurstType.SINGLE
    return Transaction(
        opcode=Opcode.STORE_POSTED if posted else Opcode.STORE,
        address=address,
        beats=len(data),
        beat_bytes=beat_bytes,
        burst=burst,
        data=list(data),
        **kwargs,
    )
