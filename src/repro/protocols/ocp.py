"""OCP socket model.

OCP is the paper's example of a *threaded* protocol: a single request
channel tagged with ``MThreadID``, responses in order within a thread and
unordered across threads.  Two OCP-specific features matter to the paper:

- **posted writes** (``WR``): writes without responses, completing at
  socket acceptance — one of the "WRITEs without responses" §3 mentions;
- **lazy synchronization** (``RDL``/``WRC`` — ReadLinked /
  WriteConditional): OCP's non-blocking synchronization, mapped by the
  NIU onto the same single exclusive-access packet bit as AXI exclusives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.ordering import OrderingModel
from repro.core.transaction import Opcode, ResponseStatus, Transaction
from repro.protocols.base import MasterSocket, ProtocolError, ProtocolMaster
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


class OcpMaster(ProtocolMaster):
    """OCP master IP model: multi-threaded, per-thread in-order.

    ``posted_writes=True`` (the OCP default here) makes plain ``STORE``
    intents go out as posted ``WR`` commands that complete at acceptance.
    """

    protocol_name = "OCP"
    ordering_model = OrderingModel.THREADED

    _snapshot_fields = ProtocolMaster._snapshot_fields + (
        "_thread_inflight",
        "_posted_complete",
        "posted_count",
    )

    def __init__(
        self,
        name: str,
        sim: Simulator,
        traffic,
        threads: int = 2,
        per_thread_outstanding: int = 2,
        posted_writes: bool = True,
        depth: int = 2,
    ) -> None:
        super().__init__(name, traffic)
        if threads < 1:
            raise ValueError("OCP master needs >= 1 thread")
        self.threads = threads
        self.per_thread_outstanding = per_thread_outstanding
        self.posted_writes = posted_writes
        self.socket = MasterSocket(
            sim,
            f"{name}.sock",
            request_channels=["req"],
            response_channels=["rsp"],
            depth=depth,
        )
        self._thread_inflight: Dict[int, int] = {t: 0 for t in range(threads)}
        self._posted_complete: List[int] = []
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
            self._posted_complete.append(txn.txn_id)
            self.posted_count += 1
        else:
            self._thread_inflight[thread] += 1
        return True

    def _has_local_completions(self) -> bool:
        return bool(self._posted_complete)

    def collect_responses(self, cycle: int) -> List[int]:
        completed: List[int] = list(self._posted_complete)
        self._posted_complete.clear()
        channel = self.socket.rsp("rsp")
        while channel._committed:
            response: OcpResponse = channel.pop()
            self._thread_inflight[response.sthreadid] -= 1
            txn = self.inflight_txn(response.txn_id)
            if response.sresp is SResp.ERR:
                self.errors += 1
                status = ResponseStatus.SLVERR
            elif txn.excl:
                if response.sresp is SResp.FAIL:
                    self.excl_failures += 1
                    status = ResponseStatus.OKAY  # lazy-sync store lost
                else:
                    self.exokay += 1
                    status = ResponseStatus.EXOKAY
            else:
                status = ResponseStatus.OKAY
            self.completion_status[response.txn_id] = status
            completed.append(response.txn_id)
        return completed
