"""AHB-flavoured multi-master shared bus (the Fig-2 reference socket).

One transfer occupies the bus from grant to response — including slave
wait states, the classic shared-bus bottleneck (no SPLIT/RETRY credit is
given to the baseline: this is the AHB-without-split worst case, which
matches most shipped AHB fabrics of the era).

Reference-socket feature set (what bridges must down-convert to):
single outstanding transfer per master and on the bus, strict in-order
completion, INCR/WRAP bursts up to :data:`MAX_BURST_BEATS` (bridges
split longer ones), acknowledged writes only, bus-level locking for
synchronization, no threads / IDs / QoS signalling.

The bus is built from the NoC's own parts, so E1 and E8 compare
architectures, not two copies of a model:

- Grants go through :class:`~repro.transport.qos.RoundRobinArbiter`,
  the least-recently-granted rotation of every router output: of the
  requesting masters, the one whose last grant is oldest wins, so
  outside a locked sequence a waiting master sees every other master
  granted at most once.  A master holding the bus lock is the only
  candidate until it releases it.
- Each target is a :class:`~repro.ip.slaves.Memory`, the model a NoC
  target's :class:`~repro.ip.slaves.MemoryDevice` serves: the same size
  and error-window checks (SLVERR), byte store, served counters and
  latency (read or write, plus ``per_beat_cycles`` per beat).  A
  transfer holds the bus for an address cycle, a cycle per beat and
  that latency; a transfer whose span no one target decodes answers
  DECERR two cycles after its grant, as the NoC's initiator NIU does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.address_map import AddressMap
from repro.core.transaction import Opcode, ResponseStatus
from repro.ip.slaves import Memory
from repro.protocols.base import SlaveRequest
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.queue import SimQueue
from repro.sim.stats import Counters
from repro.transport.qos import Candidate, RoundRobinArbiter

#: Largest burst the reference socket can carry (AHB INCR16).
MAX_BURST_BEATS = 16


@dataclass
class BusOp:
    """One reference-socket transfer queued by a bridge."""

    master_index: int
    opcode: Opcode
    address: int
    beats: int
    beat_bytes: int
    addresses: List[int]
    data: Optional[List[int]] = None
    txn_id: int = -1
    part: int = 0
    parts: int = 1


@dataclass
class BusReply:
    """Completion delivered back to the issuing bridge."""

    txn_id: int
    status: ResponseStatus
    data: Optional[List[int]]
    part: int
    parts: int
    opcode: Opcode


class SharedBus(Component):
    """The arbitrated reference-socket bus."""

    COUNTERS = Counters(
        "buses", ("transfers", "busy_cycles", "lock_held_cycles", "grant_wait_cycles")
    )

    def __init__(
        self,
        name: str,
        sim: Simulator,
        address_map: AddressMap,
        targets: Dict[int, Memory],
    ) -> None:
        super().__init__(name)
        self.sim = sim
        self.address_map = address_map
        self.targets = targets  # slave address -> memory
        self.arbiter = RoundRobinArbiter()
        self.request_queues: List[SimQueue] = []
        self.reply_queues: List[SimQueue] = []
        self._active: Optional[Tuple[int, BusOp, BusReply]] = None  # (done, ...)
        self.lock_holder: Optional[int] = None
        self.transfers = 0
        self.busy_cycles = 0
        self.lock_held_cycles = 0
        self.grant_wait_cycles = 0

    def attach_master(self, name: str) -> int:
        """Register a bridge; returns its master index."""
        index = len(self.request_queues)
        self.request_queues.append(
            self.sim.new_queue(f"{self.name}.req{index}.{name}", capacity=2)
        )
        self.reply_queues.append(
            self.sim.new_queue(f"{self.name}.rsp{index}.{name}", capacity=2)
        )
        return index

    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        if self.lock_holder is not None:
            self.lock_held_cycles += 1
        # Retire the active transfer.
        if self._active is not None:
            done, op, reply = self._active
            self.busy_cycles += 1
            if cycle < done:
                return
            if not self.reply_queues[op.master_index].can_push():
                return  # hold the bus until the bridge drains (rare)
            self.reply_queues[op.master_index].push(reply)
            if op.opcode is Opcode.STORE_COND_LOCKED:
                if self.lock_holder == op.master_index:
                    self.lock_holder = None
            self._active = None
            return
        # Grant a new transfer; a lock holder is the only candidate.
        requesting = [i for i, queue in enumerate(self.request_queues) if queue]
        candidates = [
            Candidate(port=i, priority=0, age=0)
            for i in requesting if self.lock_holder in (None, i)
        ]
        if len(candidates) < len(requesting):
            self.grant_wait_cycles += 1
        if not candidates:
            return
        winner = self.arbiter.pick(self.name, candidates).port
        self._begin(self.request_queues[winner].pop(), cycle)

    def _begin(self, op: BusOp, cycle: int) -> None:
        """Perform ``op`` now (the bus is serial: nothing overlaps) and
        hold the bus until its reply is due."""
        try:
            # The part's whole span must fit one target, as an initiator
            # NIU decodes it: a burst past a target's end is DECERR.
            slv, offset = self.address_map.decode_span(
                op.address, op.beats * op.beat_bytes
            )
            memory = self.targets[slv]
        except LookupError:
            status, data, held = ResponseStatus.DECERR, None, 2
        else:
            # READEX takes the bus; its locked store releases it in tick.
            if op.opcode is Opcode.READEX:
                self.lock_holder = op.master_index
            base = op.address - offset
            response, latency = memory.serve(SlaveRequest(
                read=op.opcode.is_read, offset=offset, beats=op.beats,
                beat_bytes=op.beat_bytes,
                addresses=[a - base for a in op.addresses], data=op.data,
            ))
            status, data = response.status, response.data
            # An address cycle, a cycle per beat and the slave's wait
            # states, all held on the bus (no SPLIT).
            held = 1 + op.beats + latency
        reply = BusReply(op.txn_id, status, data, op.part, op.parts, op.opcode)
        self._active = (cycle + held, op, reply)
        self.transfers += 1

    # ------------------------------------------------------------------ #
    def idle(self) -> bool:
        return self._active is None and all(
            not queue for queue in self.request_queues
        ) and all(not queue for queue in self.reply_queues)

    def utilization(self, cycles: int) -> float:
        return self.busy_cycles / cycles if cycles else 0.0
