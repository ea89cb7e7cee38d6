"""VCI initiator NIU, serving all three flavors (PVCI/BVCI/AVCI).

The flavor names the family row, and with it the ordering model handed
to the tag policy: PVCI and BVCI are fully ordered (Tag constantly 0);
AVCI's ``TRDID`` maps onto the Tag exactly like an AXI ID.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.address_map import AddressMap
from repro.core.protocols import family
from repro.core.transaction import BurstType, Opcode, ResponseStatus, Transaction
from repro.niu.base import InitiatorNiu, NativeSide
from repro.niu.tag_policy import TagPolicy
from repro.protocols.base import MasterSocket
from repro.protocols.vci import (
    VciCmd,
    VciRequest,
    VciResponse,
    rerror_from_status,
)
from repro.transport.network import Fabric

_OPCODES = {
    VciCmd.READ: Opcode.LOAD,
    VciCmd.WRITE: Opcode.STORE,
    VciCmd.LOCKED_READ: Opcode.READEX,
    VciCmd.STORE_COND: Opcode.STORE_COND_LOCKED,
}


class VciSide(NativeSide):
    """A VCI master socket of any flavor: one ``cmd`` channel, one
    ``rsp`` channel."""

    def peek(self, cycle: int) -> Optional[Transaction]:
        channel = self.socket.req("cmd")
        if not channel._committed:
            return None
        request: VciRequest = channel.peek()
        if request is self.record:
            return self.decoded
        sideband = request.txn
        beat_bytes = (
            request.plen // request.cells if request.cells else 4
        ) or 4
        self.record = request
        self.decoded = Transaction(
            opcode=_OPCODES[request.cmd],
            address=request.address,
            beats=request.cells,
            beat_bytes=beat_bytes,
            burst=BurstType.INCR if request.cells > 1 else BurstType.SINGLE,
            data=list(request.wdata) if request.wdata is not None else None,
            master=sideband.master if sideband else self.name,
            txn_tag=request.trdid,
            priority=sideband.priority if sideband else 0,
            txn_id=sideband.txn_id if sideband else -1,
        )
        return self.decoded

    def pop(self) -> None:
        self.socket.req("cmd").pop()

    def respond(
        self, txn: Transaction, status: ResponseStatus, data: Optional[List[int]]
    ) -> bool:
        channel = self.socket.rsp("rsp")
        if not channel.can_push():
            return False
        channel.push(
            VciResponse(
                rerror=rerror_from_status(status),
                rdata=data,
                rtrdid=txn.txn_tag,
                rpktid=txn.txn_id & 0xFF,
                txn_id=txn.txn_id,
            )
        )
        return True


class VciInitiatorNiu(InitiatorNiu):
    """Initiator NIU for a PVCI/BVCI/AVCI master socket."""

    native_side = VciSide

    def __init__(
        self,
        name: str,
        fabric: Fabric,
        endpoint: int,
        address_map: AddressMap,
        socket: MasterSocket,
        flavor: str = "BVCI",
        policy: Optional[TagPolicy] = None,
    ) -> None:
        # One class serves three families: the flavor names the row.
        self.protocol_name = family(flavor).name
        super().__init__(name, fabric, endpoint, address_map, socket, policy)
