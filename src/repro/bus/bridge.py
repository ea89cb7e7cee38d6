"""Per-protocol bridges onto the reference-socket bus (Fig 2).

A bridge is what the paper says it is: a converter that pays latency
(pipeline registers each way), pays area (two protocol front-ends plus
conversion buffering — see :func:`repro.niu.gate_count.bridge_gate_count`)
and *narrows* the socket's feature set to whatever the reference socket
can express:

- multi-threaded / multi-ID sockets are serialized to one outstanding
  transfer;
- bursts longer than the bus cap (or FIXED bursts) are split;
- posted writes become acknowledged bus writes;
- non-blocking exclusives are emulated with blocking bus locks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.protocols import family
from repro.core.transaction import Opcode, ResponseStatus, Transaction
from repro.bus.shared_bus import BusOp, BusReply, SharedBus
from repro.protocols.ahb import AhbResponse, hresp_from_status
from repro.protocols.axi import AxiB, AxiR, xresp_from_status
from repro.protocols.base import ProtocolMaster
from repro.protocols.ocp import OcpResponse, SResp
from repro.protocols.proprietary import MsgKind, MsgResponse
from repro.protocols.vci import VciResponse, rerror_from_status
from repro.sim.component import Component


class Bridge(Component):
    """Socket → reference-bus converter for one master."""

    def __init__(
        self,
        name: str,
        master: ProtocolMaster,
        protocol: str,
        bus: SharedBus,
        latency: int = 2,
    ) -> None:
        super().__init__(name)
        self.master = master
        self.protocol = family(protocol).name
        self.bus = bus
        self.latency = latency
        self.index = bus.attach_master(name)
        self._req_queue = bus.request_queues[self.index]
        self._rsp_queue = bus.reply_queues[self.index]
        self._prefer_first = True  # AXI ar/aw fairness
        # One intent at a time (the serialization penalty).
        self._incoming: Optional[Tuple[int, Transaction]] = None  # (ready, txn)
        self._ops: List[BusOp] = []
        self._parts_done = 0
        self._parts_total = 0
        self._current: Optional[Transaction] = None
        self._status = ResponseStatus.OKAY
        self._data: List[int] = []
        self._outgoing: List[Tuple[int, Transaction]] = []  # (ready, txn)
        self.intents_converted = 0
        self.splits = 0
        self.lock_emulations = 0
        self.serialization_stall_cycles = 0

    # ------------------------------------------------------------------ #
    # native side
    # ------------------------------------------------------------------ #
    def _pull_native(self) -> Optional[Transaction]:
        # The socket's request channels, in polling order.
        channels = list(self.master.socket.request_channels)
        if self.protocol == "AXI" and not self._prefer_first:
            channels = list(reversed(channels))
        for channel_name in channels:
            channel = self.master.socket.req(channel_name)
            if not channel:
                continue
            record = channel.peek()
            txn = record.txn
            assert txn is not None, "bridge needs the record sideband"
            if self.protocol == "PROPRIETARY" and record.kind is MsgKind.FENCE:
                # Serial bridge: a fence is satisfied whenever nothing is
                # in flight — which is exactly when we are pulling.
                ack = self.master.socket.rsp("ack")
                if ack.can_push():
                    channel.pop()
                    ack.push(MsgResponse(ok=True, txn_id=txn.txn_id))
                continue
            channel.pop()
            if self.protocol == "AXI":
                self._prefer_first = channel_name == "aw"
            return txn
        return None

    def _push_native_response(self, txn: Transaction) -> None:
        """Convert the aggregated bus reply back to the native socket."""
        status, data = self._status, self._data or None
        if txn.opcode is Opcode.STORE_POSTED:
            return  # master completed at acceptance; drop the bus ack
        if self.protocol == "AHB":
            self.master.socket.rsp("rsp").push(
                AhbResponse(
                    txn_id=txn.txn_id,
                    hresp=hresp_from_status(status),
                    hrdata=data,
                )
            )
        elif self.protocol == "AXI":
            if status is ResponseStatus.OKAY and txn.excl:
                status = ResponseStatus.EXOKAY  # lock emulation always wins
            if txn.opcode.is_read:
                self.master.socket.rsp("r").push(
                    AxiR(
                        rid=txn.txn_tag,
                        rdata=data or [],
                        rresp=xresp_from_status(status),
                        txn_id=txn.txn_id,
                    )
                )
            else:
                self.master.socket.rsp("b").push(
                    AxiB(
                        bid=txn.txn_tag,
                        bresp=xresp_from_status(status),
                        txn_id=txn.txn_id,
                    )
                )
        elif self.protocol == "OCP":
            # Lazy sync is emulated by a bus lock, so it never FAILs.
            sresp = SResp.ERR if status.is_error else SResp.DVA
            self.master.socket.rsp("rsp").push(
                OcpResponse(
                    sresp=sresp,
                    sthreadid=txn.thread,
                    sdata=data,
                    txn_id=txn.txn_id,
                )
            )
        elif self.protocol in ("PVCI", "BVCI", "AVCI"):
            self.master.socket.rsp("rsp").push(
                VciResponse(
                    rerror=rerror_from_status(status),
                    rdata=data,
                    rtrdid=txn.txn_tag,
                    txn_id=txn.txn_id,
                )
            )
        else:  # PROPRIETARY
            self.master.socket.rsp("ack").push(
                MsgResponse(
                    ok=not status.is_error, data=data, txn_id=txn.txn_id
                )
            )

    # ------------------------------------------------------------------ #
    # conversion
    # ------------------------------------------------------------------ #
    def _convert(self, txn: Transaction) -> List[BusOp]:
        opcode = txn.opcode
        locked = False
        if txn.excl:
            # Non-blocking exclusive → blocking bus-lock emulation.
            opcode = Opcode.READEX if txn.opcode.is_read else Opcode.STORE_COND_LOCKED
            locked = True
            self.lock_emulations += 1
        elif opcode is Opcode.STORE_POSTED:
            opcode = Opcode.STORE  # reference socket acknowledges writes
        elif opcode.is_locking:
            locked = True
        addresses = txn.beat_addresses()
        cap = self.bus.max_burst_beats
        chunks: List[Tuple[List[int], Optional[List[int]]]] = []
        for start in range(0, txn.beats, cap):
            end = min(start + cap, txn.beats)
            chunk_data = (
                list(txn.data[start:end]) if txn.data is not None else None
            )
            chunks.append((addresses[start:end], chunk_data))
        if len(chunks) > 1:
            self.splits += 1
        ops = []
        for part, (addr_chunk, data_chunk) in enumerate(chunks):
            ops.append(
                BusOp(
                    master_index=self.index,
                    opcode=opcode,
                    address=addr_chunk[0],
                    beats=len(addr_chunk),
                    beat_bytes=txn.beat_bytes,
                    addresses=addr_chunk,
                    data=data_chunk,
                    locked=locked,
                    priority=txn.priority,
                    txn_id=txn.txn_id,
                    part=part,
                    parts=len(chunks),
                )
            )
        return ops

    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        # 1. deliver matured native responses (bridge egress latency).
        while self._outgoing and self._outgoing[0][0] <= cycle:
            __, txn = self._outgoing.pop(0)
            self._push_native_response(txn)

        # 2. collect bus replies for the in-flight intent.
        while self._rsp_queue:
            reply: BusReply = self._rsp_queue.pop()
            assert self._current is not None
            if reply.status.is_error and not self._status.is_error:
                self._status = reply.status
            if reply.data:
                self._data.extend(reply.data)
            self._parts_done += 1
            if self._parts_done == self._parts_total:
                self._outgoing.append((cycle + self.latency, self._current))
                self._current = None
                self._ops = []

        # 3. push the next op of the current intent onto the bus.
        if self._ops and self._req_queue.can_push():
            self._req_queue.push(self._ops.pop(0))

        # 4. accept / mature a new intent (one at a time).
        if self._current is None and self._incoming is None:
            txn = self._pull_native()
            if txn is not None:
                self._incoming = (cycle + self.latency, txn)
        elif self._incoming is None and self._pull_would_find(cycle):
            self.serialization_stall_cycles += 1
        if self._incoming is not None and self._incoming[0] <= cycle:
            __, txn = self._incoming
            if self._current is None:
                self._incoming = None
                self._current = txn
                self._ops = self._convert(txn)
                self._parts_done = 0
                self._parts_total = len(self._ops)
                self._status = ResponseStatus.OKAY
                self._data = []
                self.intents_converted += 1

    def _pull_would_find(self, cycle: int) -> bool:
        return any(self.master.socket.request_channels.values())

    def idle(self) -> bool:
        return (
            self._current is None
            and self._incoming is None
            and not self._outgoing
            and not self._ops
        )
