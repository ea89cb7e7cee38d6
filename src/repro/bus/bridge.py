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

The socket itself is served by the master's
:class:`~repro.protocols.base.NativeSide`, the code its initiator NIU
serves it with: which request is taken next, when a FENCE is answered
and how a response record is built.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.transaction import Opcode, ResponseStatus, Transaction
from repro.bus.shared_bus import MAX_BURST_BEATS, BusOp, BusReply, SharedBus
from repro.protocols.base import ProtocolMaster
from repro.sim.component import Component
from repro.sim.stats import Counters


class Bridge(Component):
    """Socket → reference-bus converter for one master."""

    COUNTERS = Counters("bridges", (
        "intents_converted", "splits", "lock_emulations", "serialization_stall_cycles"))

    def __init__(
        self,
        name: str,
        master: ProtocolMaster,
        bus: SharedBus,
        latency: int = 2,
    ) -> None:
        super().__init__(name)
        self.master = master
        self.bus = bus
        self.latency = latency
        self.index = bus.attach_master(name)
        self._req_queue = bus.request_queues[self.index]
        self._rsp_queue = bus.reply_queues[self.index]
        self.native = master.native_side(name, master.socket, self._outstanding)
        # One intent at a time (the serialization penalty).
        self._incoming: Optional[Tuple[int, Transaction]] = None  # (ready, txn)
        self._ops: List[BusOp] = []
        self._parts_done = 0
        self._parts_total = 0
        self._current: Optional[Transaction] = None
        self._status = ResponseStatus.OKAY
        self._data: List[int] = []
        self._outgoing: List[tuple] = []  # (ready, txn, status, data)
        self.intents_converted = 0
        self.splits = 0
        self.lock_emulations = 0
        self.serialization_stall_cycles = 0

    def _outstanding(self) -> int:
        """Intents held: zero whenever the bridge takes a request."""
        return (self._current is not None) + (self._incoming is not None)

    # ------------------------------------------------------------------ #
    # conversion
    # ------------------------------------------------------------------ #
    def _convert(self, txn: Transaction) -> List[BusOp]:
        opcode = txn.opcode
        if txn.excl:
            # Non-blocking exclusive → blocking bus-lock emulation.
            opcode = Opcode.READEX if txn.opcode.is_read else Opcode.STORE_COND_LOCKED
            self.lock_emulations += 1
        elif opcode is Opcode.STORE_POSTED:
            opcode = Opcode.STORE  # reference socket acknowledges writes
        addresses = txn.beat_addresses()
        cap = MAX_BURST_BEATS
        starts = range(0, txn.beats, cap)
        if len(starts) > 1:
            self.splits += 1
        return [
            BusOp(
                master_index=self.index,
                opcode=opcode,
                address=addresses[start],
                beats=min(cap, txn.beats - start),
                beat_bytes=txn.beat_bytes,
                addresses=addresses[start:start + cap],
                data=None if txn.data is None else list(txn.data[start:start + cap]),
                txn_id=txn.txn_id,
                part=part,
                parts=len(starts),
            )
            for part, start in enumerate(starts)
        ]

    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        # 1. deliver matured native responses (bridge egress latency); a
        # posted write completed at acceptance, so its bus ack is dropped.
        while self._outgoing and self._outgoing[0][0] <= cycle:
            __, txn, status, data = self._outgoing[0]
            if txn.opcode is not Opcode.STORE_POSTED and not self.native.respond(
                txn, status, data
            ):
                break
            self._outgoing.pop(0)

        # 2. collect bus replies for the in-flight intent.
        while self._rsp_queue:
            reply: BusReply = self._rsp_queue.pop()
            txn = self._current
            assert txn is not None
            if reply.status.is_error and not self._status.is_error:
                self._status = reply.status
            if reply.data:
                self._data.extend(reply.data)
            self._parts_done += 1
            if self._parts_done == self._parts_total:
                # An errored intent answers with no data, as the NoC's
                # target does, whatever its parts that succeeded read.
                status = self._status
                data = None if status.is_error else self._data or None
                if txn.excl and not status.is_error:
                    status = ResponseStatus.EXOKAY  # lock emulation always wins
                self._outgoing.append((cycle + self.latency, txn, status, data))
                self._current = None
                self._ops = []

        # 3. push the next op of the current intent onto the bus.
        if self._ops and self._req_queue.can_push():
            self._req_queue.push(self._ops.pop(0))

        # 4. accept / mature a new intent (one at a time); the bus sees
        # the master's own sideband Transaction.
        if self._current is None and self._incoming is None:
            if self.native.peek(cycle) is not None:
                self.native.pop()
                self._incoming = (cycle + self.latency, self.native.record.txn)
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
