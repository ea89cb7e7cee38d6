"""AXI initiator NIU: five-channel AXI ↔ NoC packets.

The ID-based ordering model maps ARID/AWID onto the NoC Tag (paper §3:
"a careful assignment policy of these fields from the OCP or AXI ones
such as ThreadID and TID").  Reads and writes arbitrate round-robin for
the single packet-injection port.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.transaction import BurstType, Opcode, ResponseStatus, Transaction
from repro.niu.base import InitiatorNiu, NativeSide
from repro.protocols.axi import (
    AxBurst,
    AxLock,
    AxiAR,
    AxiAW,
    AxiB,
    AxiR,
    xresp_from_status,
)
from repro.sim.queue import SimQueue


def _burst_from_axburst(axburst: AxBurst, beats: int) -> BurstType:
    if axburst is AxBurst.WRAP:
        return BurstType.WRAP
    if axburst is AxBurst.FIXED:
        return BurstType.FIXED
    return BurstType.INCR if beats > 1 else BurstType.SINGLE


class AxiSide(NativeSide):
    """An AXI master socket: ``ar`` and ``aw`` served alternately when
    both hold a request, except that an exclusive store waits behind an
    exclusive load (:meth:`_store_waits`); ``r`` and ``b`` answer them."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._prefer_read = True
        self._peeked_channel: Optional[str] = None

    def _convert_ar(self, ar: AxiAR) -> Transaction:
        sideband = ar.txn
        return Transaction(
            opcode=Opcode.LOAD,
            address=ar.araddr,
            beats=ar.arlen + 1,
            beat_bytes=1 << ar.arsize,
            burst=_burst_from_axburst(ar.arburst, ar.arlen + 1),
            master=sideband.master if sideband else self.name,
            thread=0,  # read channel (see OrderingModel.stream_key)
            txn_tag=ar.arid,
            excl=ar.arlock is AxLock.EXCLUSIVE,
            priority=ar.arqos,
            txn_id=sideband.txn_id if sideband else -1,
        )

    def _convert_aw(self, aw: AxiAW) -> Transaction:
        sideband = aw.txn
        return Transaction(
            opcode=Opcode.STORE,
            address=aw.awaddr,
            beats=aw.awlen + 1,
            beat_bytes=1 << aw.awsize,
            burst=_burst_from_axburst(aw.awburst, aw.awlen + 1),
            data=list(aw.wdata) if aw.wdata is not None else None,
            master=sideband.master if sideband else self.name,
            thread=1,  # write channel (see OrderingModel.stream_key)
            txn_tag=aw.awid,
            excl=aw.awlock is AxLock.EXCLUSIVE,
            priority=aw.awqos,
            txn_id=sideband.txn_id if sideband else -1,
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


class AxiInitiatorNiu(InitiatorNiu):
    """Initiator NIU for an AXI master socket."""

    protocol_name = "AXI"
    native_side = AxiSide
