"""AMBA AXI socket model.

AXI is the paper's example of an *ID-based* protocol: independent read
and write channels, transaction IDs (ARID/AWID) permitting out-of-order
responses across IDs (in-order within an ID), and non-blocking
synchronization via **exclusive accesses** (``AxLOCK = EXCL``) — the
feature §3 shows costs the NoC exactly one packet user bit plus NIU state.

Channel structure follows the standard five channels; the W channel is
folded into the AW record (write data always follows its address in this
model, which loses no transaction-level generality).

On the NoC the ID-based ordering model maps ARID/AWID onto the packet
Tag (paper §3: "a careful assignment policy of these fields from the OCP
or AXI ones such as ThreadID and TID"), and :class:`AxiSide` serves reads
and writes alternately to the single packet-injection port.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.transaction import BurstType, Opcode, ResponseStatus, Transaction
from repro.protocols.base import NativeSide, ProtocolError, ProtocolMaster
from repro.sim.kernel import Simulator
from repro.sim.queue import SimQueue


class AxBurst(enum.Enum):
    FIXED = "FIXED"
    INCR = "INCR"
    WRAP = "WRAP"


class AxLock(enum.Enum):
    NORMAL = "NORMAL"
    EXCLUSIVE = "EXCLUSIVE"


class XResp(enum.Enum):
    OKAY = "OKAY"
    EXOKAY = "EXOKAY"
    SLVERR = "SLVERR"
    DECERR = "DECERR"


def axburst_for(burst: BurstType) -> AxBurst:
    if burst in (BurstType.SINGLE, BurstType.INCR):
        return AxBurst.INCR
    if burst is BurstType.WRAP:
        return AxBurst.WRAP
    if burst in (BurstType.FIXED, BurstType.STREAM):
        return AxBurst.FIXED
    raise ProtocolError(f"AXI cannot express burst {burst.value}")


def xresp_from_status(status: ResponseStatus) -> XResp:
    return XResp[status.value]


def _burst_from_axburst(axburst: AxBurst, beats: int) -> BurstType:
    if axburst is AxBurst.WRAP:
        return BurstType.WRAP
    if axburst is AxBurst.FIXED:
        return BurstType.FIXED
    return BurstType.INCR if beats > 1 else BurstType.SINGLE


@dataclass
class AxiAR:
    """Read address channel beat."""

    arid: int
    araddr: int
    arlen: int  # beats - 1, per the AXI encoding
    arsize: int  # log2(bytes)
    arburst: AxBurst
    arlock: AxLock = AxLock.NORMAL
    arqos: int = 0
    txn: Optional[Transaction] = None


@dataclass
class AxiAW:
    """Write address channel beat, with the W burst folded in."""

    awid: int
    awaddr: int
    awlen: int
    awsize: int
    awburst: AxBurst
    awlock: AxLock = AxLock.NORMAL
    awqos: int = 0
    wdata: Optional[List[int]] = None
    txn: Optional[Transaction] = None


@dataclass
class AxiR:
    """Read data channel (whole burst, RLAST implied)."""

    rid: int
    rdata: List[int]
    rresp: XResp
    txn_id: int = -1


@dataclass
class AxiB:
    """Write response channel."""

    bid: int
    bresp: XResp
    txn_id: int = -1


class AxiSide(NativeSide):
    """An AXI master socket: ``ar`` and ``aw`` served alternately when
    both hold a request, except that an exclusive store waits behind an
    exclusive load (:meth:`_store_waits`); ``r`` and ``b`` answer them."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._prefer_read = True
        self._peeked_channel: Optional[str] = None

    def _convert_ar(self, ar: AxiAR) -> Transaction:
        return Transaction(
            opcode=Opcode.LOAD,
            address=ar.araddr,
            beats=ar.arlen + 1,
            beat_bytes=1 << ar.arsize,
            burst=_burst_from_axburst(ar.arburst, ar.arlen + 1),
            master=ar.txn.master,
            thread=0,  # read channel (see OrderingModel.stream_key)
            txn_tag=ar.arid,
            excl=ar.arlock is AxLock.EXCLUSIVE,
            priority=ar.arqos,
            txn_id=ar.txn.txn_id,
        )

    def _convert_aw(self, aw: AxiAW) -> Transaction:
        return Transaction(
            opcode=Opcode.STORE,
            address=aw.awaddr,
            beats=aw.awlen + 1,
            beat_bytes=1 << aw.awsize,
            burst=_burst_from_axburst(aw.awburst, aw.awlen + 1),
            data=list(aw.wdata) if aw.wdata is not None else None,
            master=aw.txn.master,
            thread=1,  # write channel (see OrderingModel.stream_key)
            txn_tag=aw.awid,
            excl=aw.awlock is AxLock.EXCLUSIVE,
            priority=aw.awqos,
            txn_id=aw.txn.txn_id,
        )

    @staticmethod
    def _store_waits(ar: SimQueue, aw: SimQueue) -> bool:
        """Whether ``aw``'s head is an exclusive store and ``ar`` still
        holds an exclusive load.  The load goes first whichever direction
        the alternation prefers: a bridge emulates the pair with a bus
        lock that the load takes and the store drops, and a store pulled
        first would leave the load's lock held for good."""
        return bool(aw) and aw.peek().awlock is AxLock.EXCLUSIVE and any(
            request.arlock is AxLock.EXCLUSIVE for request in ar
        )

    def peek(self, cycle: int) -> Optional[Transaction]:
        ar = self.socket.req("ar")
        aw = self.socket.req("aw")
        read_first = self._prefer_read or self._store_waits(ar, aw)
        order = ["ar", "aw"] if read_first else ["aw", "ar"]
        for channel_name in order:
            channel = ar if channel_name == "ar" else aw
            if channel._committed:
                self._peeked_channel = channel_name
                record = channel.peek()
                if record is self.record:
                    return self.decoded
                self.record = record
                if channel_name == "ar":
                    self.decoded = self._convert_ar(record)
                else:
                    self.decoded = self._convert_aw(record)
                return self.decoded
        self._peeked_channel = None
        return None

    def pop(self) -> None:
        assert self._peeked_channel is not None
        self.socket.req(self._peeked_channel).pop()
        # Alternate between directions for fairness.
        self._prefer_read = self._peeked_channel == "aw"
        self._peeked_channel = None

    def respond(
        self, txn: Transaction, status: ResponseStatus, data: Optional[List[int]]
    ) -> bool:
        if txn.opcode.is_read:
            channel = self.socket.rsp("r")
            if not channel.can_push():
                return False
            channel.push(
                AxiR(
                    rid=txn.txn_tag,
                    rdata=data if data is not None else [],
                    rresp=xresp_from_status(status),
                    txn_id=txn.txn_id,
                )
            )
            return True
        channel = self.socket.rsp("b")
        if not channel.can_push():
            return False
        channel.push(
            AxiB(
                bid=txn.txn_tag,
                bresp=xresp_from_status(status),
                txn_id=txn.txn_id,
            )
        )
        return True


class AxiMaster(ProtocolMaster):
    """AXI master IP model with per-direction outstanding budgets.

    IDs come from the intent's ``txn_tag`` (traffic generators spread
    tags over ``id_count`` IDs); the base ordering checker then verifies
    the ID-based model: responses in order *within* an ID, free across.
    """

    protocol_name = "AXI"
    native_side = AxiSide
    request_channels = ("ar", "aw")
    response_channels = ("r", "b")

    def __init__(
        self,
        name: str,
        sim: Simulator,
        traffic,
        max_outstanding_reads: int = 4,
        max_outstanding_writes: int = 4,
        id_count: int = 4,
    ) -> None:
        super().__init__(name, sim, traffic)
        self.max_outstanding_reads = max_outstanding_reads
        self.max_outstanding_writes = max_outstanding_writes
        self.id_count = id_count
        self._reads_inflight = 0
        self._writes_inflight = 0

    def try_issue(self, txn: Transaction, cycle: int) -> bool:
        if txn.opcode.is_locking:
            raise ProtocolError(
                f"{self.name}: AXI has no LOCK/READEX; use exclusive "
                f"accesses (txn.excl)"
            )
        axid = txn.txn_tag % self.id_count
        txn.txn_tag = axid
        # Encode the channel in `thread` for the (channel, ID) ordering
        # stream — see OrderingModel.stream_key.
        txn.thread = 0 if txn.opcode.is_read else 1
        lock = AxLock.EXCLUSIVE if txn.excl else AxLock.NORMAL
        if txn.opcode.is_read:
            if self._reads_inflight >= self.max_outstanding_reads:
                return False
            channel = self.socket.req("ar")
            if not channel.can_push():
                return False
            channel.push(
                AxiAR(
                    arid=axid,
                    araddr=txn.address,
                    arlen=txn.beats - 1,
                    arsize=txn.beat_bytes.bit_length() - 1,
                    arburst=axburst_for(txn.burst),
                    arlock=lock,
                    arqos=txn.priority,
                    txn=txn,
                )
            )
            self._reads_inflight += 1
            return True
        if txn.opcode is Opcode.STORE_POSTED:
            raise ProtocolError(
                f"{self.name}: AXI writes always get a B response; "
                f"posted stores are an OCP/proprietary feature"
            )
        if self._writes_inflight >= self.max_outstanding_writes:
            return False
        channel = self.socket.req("aw")
        if not channel.can_push():
            return False
        channel.push(
            AxiAW(
                awid=axid,
                awaddr=txn.address,
                awlen=txn.beats - 1,
                awsize=txn.beat_bytes.bit_length() - 1,
                awburst=axburst_for(txn.burst),
                awlock=lock,
                awqos=txn.priority,
                wdata=list(txn.data) if txn.data is not None else None,
                txn=txn,
            )
        )
        self._writes_inflight += 1
        return True

    def collect_responses(self, cycle: int) -> List[Tuple[int, ResponseStatus]]:
        completed = []
        r_channel = self.socket.rsp("r")
        while r_channel._committed:
            r: AxiR = r_channel.pop()
            self._reads_inflight -= 1
            completed.append((r.txn_id, ResponseStatus[r.rresp.value]))
        b_channel = self.socket.rsp("b")
        while b_channel._committed:
            b: AxiB = b_channel.pop()
            self._writes_inflight -= 1
            completed.append((b.txn_id, ResponseStatus[b.bresp.value]))
        return completed
