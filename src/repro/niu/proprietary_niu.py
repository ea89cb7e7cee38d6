"""Proprietary MsgPort initiator NIU.

Demonstrates the paper's feature-locality claim (§2): the MsgPort's
``FENCE`` primitive is supported entirely inside this module — it waits
for the attachment to drain and acknowledges locally.  No packet field,
no transport or physical change, no other NIU touched (benchmark E6
counts exactly this).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.transaction import BurstType, Opcode, ResponseStatus, Transaction
from repro.niu.base import InitiatorNiu, NativeSide
from repro.protocols.proprietary import MsgKind, MsgRequest, MsgResponse

_OPCODES = {
    MsgKind.GET: Opcode.LOAD,
    MsgKind.PUT: Opcode.STORE_POSTED,
    MsgKind.PUT_ACK: Opcode.STORE,
}


class MsgSide(NativeSide):
    """The MsgPort: one ``msg`` channel, one ``ack`` channel; a FENCE is
    acknowledged here once nothing is outstanding."""

    def peek(self, cycle: int) -> Optional[Transaction]:
        channel = self.socket.req("msg")
        if not channel._committed:
            return None
        request: MsgRequest = channel.peek()
        if request.kind is MsgKind.FENCE:
            # Local service: complete once every tracked transaction has
            # retired.  Never reaches the fabric.
            ack = self.socket.rsp("ack")
            if self.outstanding() == 0 and ack.can_push():
                channel.pop()
                ack.push(
                    MsgResponse(
                        ok=True,
                        txn_id=request.txn.txn_id if request.txn else -1,
                    )
                )
            return None
        sideband = request.txn
        if request is self.record:
            return self.decoded
        self.record = request
        self.decoded = Transaction(
            opcode=_OPCODES[request.kind],
            address=request.addr,
            beats=request.length_words,
            beat_bytes=sideband.beat_bytes if sideband else 4,
            burst=(
                BurstType.INCR if request.length_words > 1 else BurstType.SINGLE
            ),
            data=list(request.data) if request.data is not None else None,
            master=sideband.master if sideband else self.name,
            priority=sideband.priority if sideband else 0,
            txn_id=sideband.txn_id if sideband else -1,
        )
        return self.decoded

    def pop(self) -> None:
        self.socket.req("msg").pop()

    def respond(
        self, txn: Transaction, status: ResponseStatus, data: Optional[List[int]]
    ) -> bool:
        channel = self.socket.rsp("ack")
        if not channel.can_push():
            return False
        channel.push(
            MsgResponse(ok=not status.is_error, data=data, txn_id=txn.txn_id)
        )
        return True


class MsgInitiatorNiu(InitiatorNiu):
    """Initiator NIU for the example proprietary message port."""

    protocol_name = "PROPRIETARY"
    native_side = MsgSide
