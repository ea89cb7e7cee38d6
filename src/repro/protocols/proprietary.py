"""An example proprietary socket ("various other proprietary protocols").

The paper's Fig 1/2 include a "VC Proprietary" block: real SoCs always
contain at least one home-grown interface.  ``MsgPort`` is a plausible
one — a strictly-ordered message mover with GET/PUT semantics, posted
PUTs, and a ``FENCE`` primitive (complete when everything before it has
completed).

FENCE is deliberately *not* expressible in any standard socket: it is the
running example for benchmark E6 (feature locality) — supporting it on
the NoC requires only NIU behaviour (drain the state table), no packet
change at all, since it never crosses the fabric.  Both ends of it live
in this module: the master issues it, and :class:`MsgSide`, the
attachment's end of the socket, acknowledges it locally once nothing is
outstanding.  No packet field, no transport or physical change and no
other family's code is touched (benchmark E6 counts exactly this).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.transaction import BurstType, Opcode, ResponseStatus, Transaction
from repro.protocols.base import NativeSide, ProtocolError, ProtocolMaster
from repro.sim.kernel import Simulator


class MsgKind(enum.Enum):
    GET = "GET"  # read
    PUT = "PUT"  # posted write
    PUT_ACK = "PUT_ACK"  # acknowledged write
    FENCE = "FENCE"  # local ordering barrier (never leaves the NIU)


@dataclass
class MsgRequest:
    kind: MsgKind
    addr: int
    length_words: int
    data: Optional[List[int]] = None
    txn: Optional[Transaction] = None


@dataclass
class MsgResponse:
    ok: bool
    data: Optional[List[int]] = None
    txn_id: int = -1


def make_fence(master: str = "") -> Transaction:
    """Build a FENCE intent (address 0, zero data movement)."""
    txn = Transaction(opcode=Opcode.LOAD, address=0, beats=1, master=master)
    txn.meta["fence"] = True
    return txn


def is_fence(txn: Transaction) -> bool:
    return bool(txn.meta.get("fence"))


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
        sideband = request.txn
        if request.kind is MsgKind.FENCE:
            # Local service: complete once every tracked transaction has
            # retired.  Never reaches the fabric.
            ack = self.socket.rsp("ack")
            if self.outstanding() == 0 and ack.can_push():
                channel.pop()
                ack.push(MsgResponse(ok=True, txn_id=sideband.txn_id))
            return None
        if request is self.record:
            return self.decoded
        self.record = request
        self.decoded = Transaction(
            opcode=_OPCODES[request.kind],
            address=request.addr,
            beats=request.length_words,
            beat_bytes=sideband.beat_bytes,
            burst=(
                BurstType.INCR if request.length_words > 1 else BurstType.SINGLE
            ),
            data=list(request.data) if request.data is not None else None,
            master=sideband.master,
            priority=sideband.priority,
            txn_id=sideband.txn_id,
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


class MsgMaster(ProtocolMaster):
    """Proprietary message-port master: strictly ordered, posted PUTs."""

    COUNTERS = ProtocolMaster.COUNTERS.extend("fences_issued")

    protocol_name = "PROPRIETARY"
    native_side = MsgSide
    request_channels = ("msg",)
    response_channels = ("ack",)

    def __init__(
        self,
        name: str,
        sim: Simulator,
        traffic,
        max_outstanding: int = 2,
    ) -> None:
        super().__init__(name, sim, traffic)
        self.max_outstanding = max_outstanding
        self.fences_issued = 0

    def _kind_for(self, txn: Transaction) -> MsgKind:
        if is_fence(txn):
            return MsgKind.FENCE
        if txn.excl or txn.opcode.is_locking:
            raise ProtocolError(
                f"{self.name}: MsgPort has no synchronization primitives "
                f"beyond FENCE"
            )
        if txn.opcode.is_read:
            return MsgKind.GET
        if txn.opcode is Opcode.STORE_POSTED:
            return MsgKind.PUT
        return MsgKind.PUT_ACK

    def try_issue(self, txn: Transaction, cycle: int) -> bool:
        if self.outstanding >= self.max_outstanding:
            return False
        channel = self.socket.req("msg")
        if not channel.can_push():
            return False
        kind = self._kind_for(txn)
        channel.push(
            MsgRequest(
                kind=kind,
                addr=txn.address,
                length_words=txn.beats,
                data=list(txn.data) if txn.data is not None else None,
                txn=txn,
            )
        )
        if kind is MsgKind.FENCE:
            self.fences_issued += 1
        if kind is MsgKind.PUT:
            txn.opcode = Opcode.STORE_POSTED
            self._posted.append(txn.txn_id)
        return True

    def collect_responses(self, cycle: int) -> List[Tuple[int, ResponseStatus]]:
        completed = []
        channel = self.socket.rsp("ack")
        while channel._committed:
            response: MsgResponse = channel.pop()
            status = ResponseStatus.OKAY if response.ok else ResponseStatus.SLVERR
            completed.append((response.txn_id, status))
        return completed
