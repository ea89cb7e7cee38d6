"""OCP initiator NIU: threaded OCP ↔ NoC packets.

MThreadID maps onto the NoC Tag; lazy synchronization (RDL/WRC) maps onto
the single ``excl`` packet bit — the same NoC service that carries AXI
exclusives, which is the paper's §3 punchline.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.transaction import BurstType, Opcode, ResponseStatus, Transaction
from repro.niu.base import InitiatorNiu, NativeSide
from repro.protocols.ocp import MCmd, OcpRequest, OcpResponse, SResp

_OPCODES = {
    MCmd.RD: (Opcode.LOAD, False),
    MCmd.WR: (Opcode.STORE_POSTED, False),
    MCmd.WRNP: (Opcode.STORE, False),
    MCmd.RDL: (Opcode.LOAD, True),
    MCmd.WRC: (Opcode.STORE, True),
}


class OcpSide(NativeSide):
    """An OCP master socket: one ``req`` channel carrying every thread.

    A WRC answered ``OKAY`` lost its reservation and answers ``FAIL``;
    ``EXOKAY`` is a won one and answers ``DVA``."""

    def peek(self, cycle: int) -> Optional[Transaction]:
        channel = self.socket.req("req")
        if not channel._committed:
            return None
        request: OcpRequest = channel.peek()
        if request is self.record:
            return self.decoded
        try:
            opcode, excl = _OPCODES[request.mcmd]
        except KeyError:
            raise ValueError(f"{self.name}: cannot convert {request.mcmd}") from None
        sideband = request.txn
        self.record = request
        self.decoded = Transaction(
            opcode=opcode,
            address=request.maddr,
            beats=request.mburstlength,
            beat_bytes=sideband.beat_bytes if sideband else 4,
            burst=(
                BurstType.INCR if request.mburstlength > 1 else BurstType.SINGLE
            ),
            data=list(request.mdata) if request.mdata is not None else None,
            master=sideband.master if sideband else self.name,
            thread=request.mthreadid,
            excl=excl,
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
        excl_failed = (
            txn.excl
            and txn.opcode.is_write
            and status is ResponseStatus.OKAY
        )
        if status.is_error:
            sresp = SResp.ERR
        elif excl_failed:
            sresp = SResp.FAIL
        else:
            sresp = SResp.DVA
        channel.push(
            OcpResponse(
                sresp=sresp,
                sthreadid=txn.thread,
                sdata=data,
                txn_id=txn.txn_id,
            )
        )
        return True


class OcpInitiatorNiu(InitiatorNiu):
    """Initiator NIU for an OCP master socket."""

    protocol_name = "OCP"
    native_side = OcpSide
