"""OCP socket model.

OCP is the paper's example of a *threaded* protocol: a single request
channel tagged with ``MThreadID``, responses in order within a thread and
unordered across threads.  Two OCP-specific features matter to the paper:

- **posted writes** (``WR``): writes without responses, completing at
  socket acceptance — one of the "WRITEs without responses" §3 mentions;
- **lazy synchronization** (``RDL``/``WRC`` — ReadLinked /
  WriteConditional): OCP's non-blocking synchronization, mapped by the
  NIU onto the same single exclusive-access packet bit as AXI exclusives
  — the same NoC service, which is the paper's §3 punchline.

On the NoC, the initiator NIU's tag policy maps the MThreadID that
:class:`OcpSide` decodes onto the packet Tag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.transaction import BurstType, Opcode, ResponseStatus, Transaction
from repro.protocols.base import NativeSide, ProtocolError, ProtocolMaster
from repro.sim.kernel import Simulator


class MCmd(enum.Enum):
    """OCP request commands (the subset the paper's discussion needs)."""

    IDLE = "IDLE"
    WR = "WR"  # posted write (no response)
    RD = "RD"
    WRNP = "WRNP"  # non-posted write
    RDL = "RDL"  # ReadLinked (lazy-sync load)
    WRC = "WRC"  # WriteConditional (lazy-sync store)


class SResp(enum.Enum):
    NULL = "NULL"
    DVA = "DVA"  # data valid / accept
    FAIL = "FAIL"  # WriteConditional lost its link
    ERR = "ERR"


@dataclass
class OcpRequest:
    mcmd: MCmd
    maddr: int
    mburstlength: int
    mthreadid: int
    mdata: Optional[List[int]] = None
    mreqinfo: int = 0
    txn: Optional[Transaction] = None

    def __post_init__(self) -> None:
        writes = (MCmd.WR, MCmd.WRNP, MCmd.WRC)
        if self.mcmd in writes and (
            self.mdata is None or len(self.mdata) != self.mburstlength
        ):
            raise ProtocolError(f"OCP {self.mcmd.value} needs MData per beat")


@dataclass
class OcpResponse:
    sresp: SResp
    sthreadid: int
    sdata: Optional[List[int]] = None
    txn_id: int = -1


#: MCmd -> (transaction opcode, exclusive).
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
            beat_bytes=sideband.beat_bytes,
            burst=(
                BurstType.INCR if request.mburstlength > 1 else BurstType.SINGLE
            ),
            data=list(request.mdata) if request.mdata is not None else None,
            master=sideband.master,
            thread=request.mthreadid,
            excl=excl,
            priority=sideband.priority,
            txn_id=sideband.txn_id,
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


class OcpMaster(ProtocolMaster):
    """OCP master IP model: multi-threaded, per-thread in-order.

    ``posted_writes=True`` (the OCP default here) makes plain ``STORE``
    intents go out as posted ``WR`` commands that complete at acceptance.
    """

    COUNTERS = ProtocolMaster.COUNTERS.extend("posted_count")

    protocol_name = "OCP"
    native_side = OcpSide
    request_channels = ("req",)
    response_channels = ("rsp",)

    def __init__(
        self,
        name: str,
        sim: Simulator,
        traffic,
        threads: int = 2,
        per_thread_outstanding: int = 2,
        posted_writes: bool = True,
    ) -> None:
        if threads < 1:
            raise ValueError("OCP master needs >= 1 thread")
        super().__init__(name, sim, traffic)
        self.threads = threads
        self.per_thread_outstanding = per_thread_outstanding
        self.posted_writes = posted_writes
        self._thread_inflight: Dict[int, int] = {t: 0 for t in range(threads)}
        self.posted_count = 0

    def _mcmd_for(self, txn: Transaction) -> MCmd:
        if txn.opcode.is_locking:
            raise ProtocolError(
                f"{self.name}: OCP uses lazy synchronization (RDL/WRC), "
                f"not LOCK/READEX"
            )
        if txn.excl:
            return MCmd.RDL if txn.opcode.is_read else MCmd.WRC
        if txn.opcode is Opcode.LOAD:
            return MCmd.RD
        if txn.opcode is Opcode.STORE_POSTED:
            return MCmd.WR
        if txn.opcode is Opcode.STORE:
            return MCmd.WR if self.posted_writes else MCmd.WRNP
        raise ProtocolError(f"{self.name}: cannot map {txn.opcode.value} to OCP")

    def try_issue(self, txn: Transaction, cycle: int) -> bool:
        thread = txn.thread % self.threads
        if self._thread_inflight[thread] >= self.per_thread_outstanding:
            return False
        channel = self.socket.req("req")
        if not channel.can_push():
            return False
        mcmd = self._mcmd_for(txn)
        txn.thread = thread  # normalize for the ordering checker
        if mcmd is MCmd.WR:
            txn.opcode = Opcode.STORE_POSTED  # response-less from here on
        channel.push(
            OcpRequest(
                mcmd=mcmd,
                maddr=txn.address,
                mburstlength=txn.beats,
                mthreadid=thread,
                mdata=list(txn.data) if txn.data is not None else None,
                txn=txn,
            )
        )
        if mcmd is MCmd.WR:
            # Posted: completes at socket acceptance, no response will come.
            self._posted.append(txn.txn_id)
            self.posted_count += 1
        else:
            self._thread_inflight[thread] += 1
        return True

    def collect_responses(self, cycle: int) -> List[Tuple[int, ResponseStatus]]:
        completed = []
        channel = self.socket.rsp("rsp")
        while channel._committed:
            response: OcpResponse = channel.pop()
            self._thread_inflight[response.sthreadid] -= 1
            if response.sresp is SResp.ERR:
                status = ResponseStatus.SLVERR
            elif response.sresp is SResp.FAIL:
                status = ResponseStatus.OKAY  # lazy-sync store lost
            elif self._inflight[response.txn_id].excl:
                status = ResponseStatus.EXOKAY
            else:
                status = ResponseStatus.OKAY
            completed.append((response.txn_id, status))
        return completed
