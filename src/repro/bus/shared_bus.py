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

Grants rotate round-robin: the first requesting master after the last
one granted.  A master holding the bus lock is the only one granted
until it releases it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.address_map import AddressMap
from repro.core.transaction import Opcode, ResponseStatus
from repro.ip.slaves import ByteStore
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.queue import SimQueue

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


@dataclass
class _BusTarget:
    name: str
    base: int
    size: int
    read_latency: int
    write_latency: int
    store: ByteStore = field(default_factory=ByteStore)


class SharedBus(Component):
    """The arbitrated reference-socket bus."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        address_map: AddressMap,
    ) -> None:
        super().__init__(name)
        self.sim = sim
        self.address_map = address_map
        self._targets: Dict[int, _BusTarget] = {}
        self.request_queues: List[SimQueue] = []
        self.reply_queues: List[SimQueue] = []
        self._active: Optional[Tuple[int, BusOp, BusReply]] = None  # (done, ...)
        self.lock_holder: Optional[int] = None
        self._rr_last = -1
        self.transfers = 0
        self.busy_cycles = 0
        self.lock_held_cycles = 0
        self.grant_wait_cycles = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_target(
        self,
        name: str,
        base: int,
        size: int,
        read_latency: int = 4,
        write_latency: int = 2,
        slv_addr: Optional[int] = None,
    ) -> _BusTarget:
        slv = slv_addr if slv_addr is not None else len(self._targets)
        target = _BusTarget(name, base, size, read_latency, write_latency)
        self._targets[slv] = target
        return target

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
    def _target_for(self, address: int) -> Optional[Tuple[int, _BusTarget]]:
        try:
            slv, __ = self.address_map.decode(address)
        except LookupError:
            return None
        target = self._targets.get(slv)
        return (slv, target) if target is not None else None

    def _arbitrate(self, candidates: List[int]) -> int:
        """Round-robin: the first candidate after the last winner."""
        after = [i for i in sorted(candidates) if i > self._rr_last]
        winner = after[0] if after else sorted(candidates)[0]
        self._rr_last = winner
        return winner

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
        # Grant a new transfer.
        candidates = [
            i
            for i, queue in enumerate(self.request_queues)
            if queue
            and (self.lock_holder is None or self.lock_holder == i)
        ]
        blocked = any(
            queue and i not in candidates
            for i, queue in enumerate(self.request_queues)
        )
        if blocked:
            self.grant_wait_cycles += 1
        if not candidates:
            return
        winner = self._arbitrate(candidates)
        op: BusOp = self.request_queues[winner].pop()
        self._begin(op, cycle)

    def _begin(self, op: BusOp, cycle: int) -> None:
        located = self._target_for(op.address)
        if located is None:
            reply = BusReply(
                txn_id=op.txn_id,
                status=ResponseStatus.DECERR,
                data=None,
                part=op.part,
                parts=op.parts,
                opcode=op.opcode,
            )
            self._active = (cycle + 2, op, reply)
            self.transfers += 1
            return
        __, target = located
        # Locking (READEX takes the bus; its locked store releases it in tick).
        if op.opcode is Opcode.READEX:
            self.lock_holder = op.master_index
        # Perform the access now (bus is serial; no overlap possible).
        status = ResponseStatus.OKAY
        data: Optional[List[int]] = None
        span_ok = all(
            target.base <= a and a + op.beat_bytes <= target.base + target.size
            for a in op.addresses
        )
        if not span_ok:
            status = ResponseStatus.SLVERR
            latency = 2
        elif op.opcode.is_read:
            data = [
                target.store.read_beat(a - target.base, op.beat_bytes)
                for a in op.addresses
            ]
            latency = target.read_latency
        else:
            payload = op.data or []
            for a, value in zip(op.addresses, payload):
                target.store.write_beat(a - target.base, value, op.beat_bytes)
            latency = target.write_latency
        # Bus occupancy: 1 grant/address cycle + one cycle per beat + the
        # slave's wait states (held on the bus — no SPLIT).
        service = 1 + op.beats + latency
        reply = BusReply(
            txn_id=op.txn_id,
            status=status,
            data=data,
            part=op.part,
            parts=op.parts,
            opcode=op.opcode,
        )
        self._active = (cycle + service, op, reply)
        self.transfers += 1

    # ------------------------------------------------------------------ #
    def idle(self) -> bool:
        return self._active is None and all(
            not queue for queue in self.request_queues
        ) and all(not queue for queue in self.reply_queues)

    def utilization(self, cycles: int) -> float:
        return self.busy_cycles / cycles if cycles else 0.0
