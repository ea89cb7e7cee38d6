"""Initiator and target NIU engines.

The initiator NIU converts a master socket's native requests into NoC
packets and returns response packets to the socket in the order its
protocol demands.  One :class:`InitiatorNiu` serves every family, which
is the paper's compatibility argument made concrete: ordering, tagging,
state tracking and service bits are one shared mechanism, and the socket
names the rest — its family row and its
:class:`~repro.protocols.base.NativeSide`, the family's one reading of
its socket, which the bus bridge (:class:`repro.bus.bridge.Bridge`)
serves the socket with too.  A new socket contributes its row in
:mod:`repro.core.protocols` (ordering model, services, default tag
policy) and its module in :mod:`repro.protocols` — nothing else.

The target NIU terminates the socket protocol at the target side: it
owns the per-target *NoC service* state (exclusive-access monitor, lock
manager) and presents the target IP a neutral read/write interface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.address_map import AddressMap, DecodeError
from repro.core.packet import NocPacket, PacketKind
from repro.core.protocols import family
from repro.core.services import ExclusiveMonitor, ExclusiveResult, LockManager
from repro.core.transaction import (
    BurstType,
    Opcode,
    ResponseStatus,
    Transaction,
)
from repro.niu.state_table import StateTable
from repro.niu.tag_policy import TagPolicy, default_policy
from repro.protocols.base import (
    MasterSocket,
    SlaveRequest,
    SlaveResponse,
    SlaveSocket,
)
from repro.sim.component import Component
from repro.sim.queue import SimQueue
from repro.sim.stats import Counters
from repro.transport.network import Fabric


class InitiatorNiu(Component):
    """The initiator-NIU engine, for a master socket of any family.

    The engine wires itself to the master ``socket``, reads it with the
    socket's ``native_side`` and takes its tag policy from the row of the
    socket's ``family``: with no ``policy`` the row's default, and a
    policy of any other ordering model is a ``ValueError``.
    """

    COUNTERS = Counters("initiator_nius", (
        "requests_sent", "responses_delivered", "stall_cycles", "posted_sent",
        "decode_errors"))

    def __init__(
        self,
        name: str,
        fabric: Fabric,
        endpoint: int,
        address_map: AddressMap,
        socket: MasterSocket,
        policy: Optional[TagPolicy] = None,
    ) -> None:
        super().__init__(name)
        row = family(socket.family)
        if policy is None:
            policy = default_policy(row.name)
        elif policy.ordering is not row.ordering:
            raise ValueError(
                f"{name}: a {row.name} NIU needs a {row.ordering.value} tag "
                f"policy, got {policy.ordering.value}"
            )
        self.fabric = fabric
        self.endpoint = endpoint
        self.address_map = address_map
        self.socket = socket
        self.policy = policy
        self.table = StateTable(f"{name}.table", policy.max_outstanding)
        self.requests_sent = 0
        self.responses_delivered = 0
        self.posted_sent = 0
        self.decode_errors = 0
        self.stall_cycles = 0
        # Activity wiring: arriving response packets and new native
        # requests wake the engine.
        self._rsp_packets = fabric.responses(endpoint)
        self._rsp_packets.wake_on_push(self)
        self._native_req_queues: Tuple[SimQueue, ...] = tuple(
            socket.request_channels.values()
        )
        for queue in self._native_req_queues:
            queue.wake_on_push(self)
        # Bound once, so the per-tick path calls the native side directly.
        self.native = native = socket.native_side(name, socket, self.table.__len__)
        self.peek_native = native.peek
        self.pop_native = native.pop
        self.respond_native = native.respond
        # Last native request TagPolicy.admit refused, and the table
        # version it was refused against (see _issue_requests).
        self._refused_txn: Optional[Transaction] = None
        self._refused_version = -1

    def next_event_cycle(self, now: int):
        """Dormant while merely *waiting*: outstanding table entries with
        no arrived response, nothing deliverable and no native request
        make every tick a no-op.  Both re-arming events wake us — a
        response packet push and a native request push (registered in
        __init__) — so the kernel may park the engine until one fires.
        A deliverable entry refused by a full native response channel
        keeps us hot, so a freed slot needs no wake.  A responded entry
        held back by stream order becomes deliverable only through an
        older response packet or a release inside our own tick."""
        if self._rsp_packets or self.table.deliverable():
            return now
        for queue in self._native_req_queues:
            if queue._committed:
                return now
        return None

    # ------------------------------------------------------------------ #
    # engine
    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        self._accept_responses(cycle)
        self._deliver_responses(cycle)
        issued_any, saw_native = self._issue_requests(cycle)
        if not issued_any and saw_native:
            # A native request was visible but could not issue (decoded
            # earlier in _issue_requests — no pops happened on the failed
            # path, so that peek is still authoritative).
            self.stall_cycles += 1

    def _accept_responses(self, cycle: int) -> None:
        queue = self._rsp_packets
        while queue._committed:
            packet: NocPacket = queue.pop()
            entry = self.table.match_response(
                packet.tag, packet.slv_addr, txn_id_hint=packet.txn_id
            )
            self.table.mark_responded(
                entry.txn_id, packet.status, packet.payload
            )
            self.simulator.trace.log(
                cycle,
                self.name,
                "rsp_accept",
                txn=entry.txn_id,
                status=packet.status.value,
            )

    def _deliver_responses(self, cycle: int) -> None:
        """Hand the socket one deliverable response per cycle."""
        for entry in self.table.deliverable():
            if self.respond_native(entry.txn, entry.status, entry.payload):
                self.table.release(entry.txn_id)
                self.responses_delivered += 1
                return

    def _issue_requests(self, cycle: int) -> Tuple[bool, bool]:
        """Issue at most one native request per cycle; returns (issued
        it, saw a native request at all).

        A :meth:`TagPolicy.admit` refusal is memoised on the identity of
        the refused ``peek_native`` object (held here, so ``is`` cannot
        alias a later request) and the table's ``version``: ``admit``
        reads only table state that ``version`` covers, and the table's
        writers run only inside our own tick, so an unchanged version
        re-refuses the same request without decoding it again.  The
        other exits (injection space, posted stores, decode errors)
        depend on state outside the table and are not memoised.
        """
        txn = self.peek_native(cycle)
        if txn is None:
            return False, False
        if (
            txn is self._refused_txn
            and self.table.version == self._refused_version
        ):
            return False, True
        try:
            slv_addr, offset = self.address_map.decode_span(
                txn.address, txn.total_bytes
            )
        except DecodeError:
            return self._reject_decode(txn), True
        if txn.opcode is Opcode.STORE_POSTED:
            if not self.fabric.can_inject_request(self.endpoint):
                return False, True
            self.pop_native()
            self._inject(txn, slv_addr, offset, tag=self.policy.tag_for(txn))
            self.posted_sent += 1
            return True, True
        if not self.policy.admit(txn, slv_addr, self.table):
            self._refused_txn = txn
            self._refused_version = self.table.version
            return False, True
        if not self.fabric.can_inject_request(self.endpoint):
            return False, True
        self.pop_native()
        tag = self.policy.tag_for(txn)
        self.table.allocate(txn, tag, slv_addr, offset, self.policy.stream_of(txn))
        self._inject(txn, slv_addr, offset, tag)
        return True, True

    def _reject_decode(self, txn: Transaction) -> bool:
        """Complete an unmapped address with DECERR, never entering the
        fabric (default-slave behaviour).  Posted stores are dropped."""
        if txn.opcode is Opcode.STORE_POSTED:
            self.pop_native()
            self.decode_errors += 1
            return True
        if not self.table.can_allocate():
            return False
        self.pop_native()
        entry = self.table.allocate(
            txn,
            tag=self.policy.tag_for(txn),
            slv_addr=0,
            offset=0,
            stream=self.policy.stream_of(txn),
        )
        self.table.mark_responded(
            entry.txn_id, ResponseStatus.DECERR, payload=None
        )
        self.decode_errors += 1
        return True

    def _inject(
        self, txn: Transaction, slv_addr: int, offset: int, tag: int
    ) -> None:
        user: Dict[str, int] = {}
        if txn.excl:
            user["excl"] = 1
        packet = NocPacket(
            kind=PacketKind.REQUEST,
            opcode=txn.opcode,
            slv_addr=slv_addr,
            mst_addr=self.endpoint,
            tag=tag,
            offset=offset,
            beats=txn.beats,
            beat_bytes=txn.beat_bytes,
            burst=txn.burst.value,
            payload=list(txn.data) if txn.data is not None else None,
            priority=txn.priority,
            user=user,
            txn_id=txn.txn_id,
        )
        self.fabric.inject_request(self.endpoint, packet)
        self.requests_sent += 1


class TargetNiu(Component):
    """Generic target NIU: packets in, neutral slave operations out.

    Owns the per-target NoC-service state: the exclusive-access monitor
    (the "state information in the NIU" of §3) and the lock manager for
    the legacy blocking family.
    """

    COUNTERS = Counters("target_nius", (
        "requests_served", "excl_failures", "lock_blocked_cycles", "posted_served"))

    def __init__(
        self,
        name: str,
        fabric: Fabric,
        endpoint: int,
        slave_socket: SlaveSocket,
        max_outstanding: int = 4,
        exclusive_monitor: Optional[ExclusiveMonitor] = None,
        lock_manager: Optional[LockManager] = None,
    ) -> None:
        super().__init__(name)
        self.fabric = fabric
        self.endpoint = endpoint
        self.slave_socket = slave_socket
        self.max_outstanding = max_outstanding
        self.monitor = exclusive_monitor
        self.locks = lock_manager
        self._pending: Dict[int, NocPacket] = {}  # token -> request packet
        self._release_on_complete: Dict[int, int] = {}  # token -> mst
        # Lock-blocked requests parked out of the delivery queue (arrival
        # order).  A bystander's request can land in the queue before the
        # holder's READEX engages — easily under adaptive routing, where
        # packets arrive over several paths — and blocking it at the
        # *head* would head-of-line block the holder's own traffic,
        # including the locked store that ends the critical section:
        # deadlock.
        # Parking keeps per-source FIFO (later packets of a parked master
        # are parked too) while the holder keeps flowing.
        self._parked: List[NocPacket] = []
        self._next_token = 0
        # Responses leave in request-acceptance order so the fabric's
        # per-(initiator, tag) FIFO guarantee holds even when the NIU
        # answers some requests directly (locks, failed exclusives).
        self._order: List[int] = []  # accepted tokens, oldest first
        self._ready: Dict[int, Optional[NocPacket]] = {}  # None = no rsp
        self.requests_served = 0
        self.posted_served = 0
        self.excl_failures = 0
        self.lock_blocked_cycles = 0
        # Activity wiring: arriving request packets and finished target-IP
        # accesses wake the NIU; a capacity-stalled head packet keeps it
        # hot until a slave request slot drains.
        self._req_packets = fabric.requests(endpoint)
        self._req_packets.wake_on_push(self)
        slave_socket.responses.wake_on_push(self)

    # ------------------------------------------------------------------ #
    def next_event_cycle(self, now: int):
        """Dormant while every accepted request is at the target IP and
        nothing else needs the engine: no delivered packet, no finished
        access to absorb, no response ready to inject, no lock-parked
        packet (parked heads do per-cycle blocked accounting).  The
        re-arming events — request-packet push and slave-response push —
        are wake-registered in __init__."""
        if (
            self._req_packets
            or self._parked
            or self.slave_socket.responses._committed
        ):
            return now
        order = self._order
        if order and order[0] in self._ready:
            return now  # response ready: retry injection every cycle
        return None

    def tick(self, cycle: int) -> None:
        self._return_responses(cycle)
        self._accept_requests(cycle)

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def _accept_requests(self, cycle: int) -> None:
        queue = self._req_packets
        if self.locks is not None:
            # Park lock-blocked heads aside so a bystander that slipped
            # into the queue around the READEX can never head-of-line
            # block the holder's traffic (see _parked).  Per-source FIFO
            # is preserved: later packets of a parked master park too.
            while queue:
                head: NocPacket = queue.peek()
                mst = head.mst_addr
                if self.locks.may_proceed(mst) and not any(
                    parked.mst_addr == mst for parked in self._parked
                ):
                    break
                self._parked.append(queue.pop())
            if self._parked:
                # Serve the oldest parked packet whose master may now
                # proceed (one packet per cycle, parked first: they are
                # the oldest arrivals).  Blocked-cycle accounting counts
                # only cycles in which some parked packet is actually
                # refused — not the drain after the locked store.
                servable = None
                blocked = False
                for index, packet in enumerate(self._parked):
                    if self.locks.may_proceed(packet.mst_addr):
                        if servable is None:
                            servable = index
                    else:
                        blocked = True
                if blocked:
                    self.lock_blocked_cycles += 1
                if servable is not None:
                    packet = self._parked[servable]
                    if self._serve_packet(packet, cycle):
                        del self._parked[servable]
                    return
        if not queue:
            return
        packet = queue.peek()
        if self._serve_packet(packet, cycle):
            queue.pop()

    def _serve_packet(self, packet: NocPacket, cycle: int) -> bool:
        """Serve one delivered request; True when the packet is consumed.

        False means a capacity gate stalled it (socket slot, outstanding
        window, response injection) — the caller keeps it queued/parked
        and retries next cycle.  Capacity gates come before any state
        change so a stalled cycle has no side effects (in particular:
        the exclusive reservation must be consumed exactly once).
        """
        excl = bool(packet.user.get("excl"))
        if excl and packet.opcode.is_write and self.monitor is None:
            self._respond_direct(packet, ResponseStatus.SLVERR)
            return True
        if not self.slave_socket.requests.can_push():
            return False
        if len(self._pending) >= self.max_outstanding:
            return False
        if excl and packet.opcode.is_write:
            # Decide *before* touching the target: a failed exclusive
            # store must not modify memory.
            result = self.monitor.exclusive_store(
                packet.mst_addr, packet.offset, packet.beats * packet.beat_bytes
            )
            if result is ExclusiveResult.OKAY_FAILED:
                self.excl_failures += 1
                self._respond_direct(packet, ResponseStatus.OKAY)
                return True
            # EXOKAY: fall through and perform the write.
        self._forward(packet, excl, cycle)
        return True

    def _allocate_token(self) -> int:
        token = self._next_token
        self._next_token += 1
        self._order.append(token)
        return token

    def _respond_direct(self, packet: NocPacket, status: ResponseStatus) -> None:
        """Complete at the NIU without involving the target IP."""
        payload = None
        if packet.opcode.is_read and not status.is_error:
            payload = [0] * packet.beats
        token = self._allocate_token()
        self._ready[token] = packet.make_response(status, payload=payload)
        self.requests_served += 1

    def _forward(self, packet: NocPacket, excl: bool, cycle: int) -> None:
        span = packet.beats * packet.beat_bytes
        if self.locks is not None:
            if packet.opcode is Opcode.READEX:
                # Locked read: take the lock for this master.
                self.locks.acquire(packet.mst_addr)
            elif packet.opcode is Opcode.STORE_COND_LOCKED:
                # Locked write: release once the write completes.
                pass  # handled at response time via _release_on_complete
        if self.monitor is not None:
            if excl and packet.opcode.is_read:
                self.monitor.exclusive_load(
                    packet.mst_addr, packet.offset, span, cycle
                )
            elif packet.opcode.is_write:
                self.monitor.observe_store(packet.mst_addr, packet.offset, span)
        token = self._allocate_token()
        self._pending[token] = packet
        if packet.opcode is Opcode.STORE_COND_LOCKED and self.locks is not None:
            self._release_on_complete[token] = packet.mst_addr
        burst = BurstType[packet.burst]
        self.slave_socket.requests.push(
            SlaveRequest(
                read=packet.opcode.is_read,
                offset=packet.offset,
                beats=packet.beats,
                beat_bytes=packet.beat_bytes,
                addresses=burst.addresses(
                    packet.offset, packet.beats, packet.beat_bytes
                ),
                data=list(packet.payload) if packet.payload is not None else None,
                token=token,
            )
        )
        self.requests_served += 1

    # ------------------------------------------------------------------ #
    # response path
    # ------------------------------------------------------------------ #
    def _return_responses(self, cycle: int) -> None:
        # Absorb finished target-IP accesses into the ready map.
        responses = self.slave_socket.responses
        while responses._committed:
            slave_rsp: SlaveResponse = responses.pop()
            packet = self._pending.pop(slave_rsp.token)
            if packet.opcode.expects_response:
                status = slave_rsp.status
                if packet.user.get("excl") and not status.is_error:
                    status = ResponseStatus.EXOKAY
                self._ready[slave_rsp.token] = packet.make_response(
                    status, payload=slave_rsp.data
                )
            else:
                self._ready[slave_rsp.token] = None  # posted: no response
                self.posted_served += 1
            mst = self._release_on_complete.pop(slave_rsp.token, None)
            if mst is not None:
                self.locks.release(mst)
        # Inject strictly in request-acceptance order.
        while self._order and self._order[0] in self._ready:
            token = self._order[0]
            response = self._ready[token]
            if response is not None:
                if not self.fabric.can_inject_response(self.endpoint):
                    return
                self.fabric.inject_response(self.endpoint, response)
            del self._ready[token]
            self._order.pop(0)

    @property
    def outstanding(self) -> int:
        return len(self._pending) + len(self._order) + len(self._parked)
