"""AHB 2.0 initiator NIU: AHB transfers ↔ NoC packets."""

from __future__ import annotations

from typing import List, Optional

from repro.core.transaction import BurstType, Opcode, ResponseStatus, Transaction
from repro.niu.base import InitiatorNiu, NativeSide
from repro.protocols.ahb import AhbRequest, AhbResponse, HBurst, hresp_from_status


def _burst_from_hburst(hburst: HBurst) -> BurstType:
    if hburst is HBurst.SINGLE:
        return BurstType.SINGLE
    if hburst.wrapping:
        return BurstType.WRAP
    return BurstType.INCR


def _opcode_from(request: AhbRequest) -> Opcode:
    if request.hmastlock:
        return Opcode.STORE_COND_LOCKED if request.hwrite else Opcode.READEX
    return Opcode.STORE if request.hwrite else Opcode.LOAD


class AhbSide(NativeSide):
    """An AHB master socket: one ``req`` channel, one ``rsp`` channel."""

    def peek(self, cycle: int) -> Optional[Transaction]:
        channel = self.socket.req("req")
        if not channel._committed:
            return None
        request: AhbRequest = channel.peek()
        if request is self.record:
            return self.decoded
        sideband = request.txn
        self.record = request
        self.decoded = Transaction(
            opcode=_opcode_from(request),
            address=request.haddr,
            beats=request.beats,
            beat_bytes=1 << request.hsize,
            burst=_burst_from_hburst(request.hburst),
            data=list(request.hwdata) if request.hwdata is not None else None,
            master=sideband.master if sideband else self.name,
            priority=sideband.priority if sideband else 0,
            txn_id=sideband.txn_id if sideband else -1,
        )
        return self.decoded

    def pop(self) -> None:
        self.socket.req("req").pop()

    def respond(
        self, txn: Transaction, status: ResponseStatus, data: Optional[List[int]]
    ) -> bool:
        channel = self.socket.rsp("rsp")
        if not channel.can_push():
            return False
        channel.push(
            AhbResponse(
                txn_id=txn.txn_id,
                hresp=hresp_from_status(status),
                hrdata=data,
            )
        )
        return True


class AhbInitiatorNiu(InitiatorNiu):
    """Initiator NIU for an AHB master socket.

    AHB is fully ordered and single-outstanding at the socket, so the
    natural policy is the minimal one (tag 0, one entry) — the cheapest
    NIU in the gate-count sweep.  A deeper policy is still legal and lets
    the NIU pipeline bus-side transfers it has already accepted.
    """

    protocol_name = "AHB"
    native_side = AhbSide
