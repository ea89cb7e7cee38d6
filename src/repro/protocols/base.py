"""Shared socket machinery for all protocol models.

A *socket* is the bundle of channels between an IP block and whatever
interconnect attachment point it plugs into (NIU or bus bridge).  Each
channel is a staged :class:`~repro.sim.queue.SimQueue`, so channel
handshakes cost one cycle like everything else in the simulation.

:class:`ProtocolMaster` is the common base of every master IP model: it
pulls abstract intents (:class:`~repro.core.transaction.Transaction`
objects) from a traffic source, asks its protocol subclass whether/how
they can be issued now, and scores completions (latency histogram plus an
:class:`~repro.core.ordering.OrderingChecker` in the protocol's native
ordering model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol

from repro.core.ordering import OrderingChecker, OrderingModel
from repro.core.transaction import ResponseStatus, Transaction
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.queue import SimQueue
from repro.sim.snapshot import Snapshottable


class ProtocolError(RuntimeError):
    """A socket rule was violated (model bug or illegal stimulus)."""


class MasterSocket:
    """Named channels between a master IP and its attachment point.

    The IP side pushes onto *request-direction* channels and pops from
    *response-direction* channels; the NIU/bridge side does the reverse.
    Channel names are protocol specific ("req"/"rsp" for AHB-style,
    "ar"/"aw"/"w"/"r"/"b" for AXI...).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        request_channels: List[str],
        response_channels: List[str],
        depth: int = 2,
    ) -> None:
        self.name = name
        self.request_channels: Dict[str, SimQueue] = {
            ch: sim.new_queue(f"{name}.{ch}", capacity=depth)
            for ch in request_channels
        }
        self.response_channels: Dict[str, SimQueue] = {
            ch: sim.new_queue(f"{name}.{ch}", capacity=depth)
            for ch in response_channels
        }

    def req(self, channel: str) -> SimQueue:
        return self.request_channels[channel]

    def rsp(self, channel: str) -> SimQueue:
        return self.response_channels[channel]


@dataclass
class SlaveRequest:
    """Generic operation presented to a target IP by its target NIU.

    Target NIUs terminate the socket protocol themselves (state tables,
    exclusive monitors, lock managers) and present targets this neutral
    read/write interface, mirroring how memory controllers expose simple
    SRAM-like backends behind protocol front-ends.
    """

    read: bool
    offset: int
    beats: int
    beat_bytes: int
    addresses: List[int]
    data: Optional[List[int]] = None
    token: int = -1  # NIU-side correlation token
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass
class SlaveResponse:
    token: int
    status: ResponseStatus = ResponseStatus.OKAY
    data: Optional[List[int]] = None


class SlaveSocket:
    """Request/response queue pair between a target NIU and a target IP."""

    def __init__(self, sim: Simulator, name: str, depth: int = 2) -> None:
        self.name = name
        self.requests = sim.new_queue(f"{name}.req", capacity=depth)
        self.responses = sim.new_queue(f"{name}.rsp", capacity=depth)


class TrafficSource(Protocol):
    """What a master IP model pulls intents from (see :mod:`repro.ip.traffic`)."""

    def poll(self, cycle: int) -> Optional[Transaction]:
        """Next intent if one is ready to issue at ``cycle``, else None."""
        ...

    def done(self) -> bool:
        """True when the source will never produce another intent."""
        ...

    def notify_complete(
        self, txn_id: int, cycle: int, status: ResponseStatus
    ) -> None:
        """Completion callback (lets sources model dependent requests and
        react to exclusive-access failures)."""
        ...


class ProtocolMaster(Component, Snapshottable):
    """Base master IP model.

    Subclass contract:

    - :meth:`try_issue` — if the pending intent can legally enter the
      socket this cycle, push the protocol records and return True;
    - :meth:`collect_responses` — pop whatever response channels have and
      return the ``txn_id`` of every intent that completed this cycle.
    """

    protocol_name = "BASE"
    ordering_model = OrderingModel.FULLY_ORDERED

    def __init__(
        self,
        name: str,
        traffic: TrafficSource,
        strict_ordering_check: bool = True,
    ) -> None:
        super().__init__(name)
        self.traffic = traffic
        self.checker = OrderingChecker(
            model=self.ordering_model, master=name, strict=strict_ordering_check
        )
        self._pending: Optional[Transaction] = None
        self._inflight: Dict[int, Transaction] = {}
        # Time-skipping lookahead (activity kernel only): when the
        # traffic source has pre-drawn its next intent ("polls"
        # lookahead), _armed_at is the absolute cycle the intent becomes
        # pollable — ticks before it must not poll (the source's rng
        # draws for those cycles were already consumed).  -1 = no
        # lookahead pending; the strict kernel never sets it.
        self._armed_at = -1
        # True while the last try_issue refusal found every request
        # channel pushable — i.e. the protocol's own outstanding limit
        # refused it, which only collect_responses can lift.  Sampled at
        # the refusal (see tick), cleared by a successful issue.
        self._limit_blocked = False
        self._latency_stat = None  # resolved at bind()
        #: Native status translated to the transaction-layer vocabulary,
        #: recorded by subclasses before returning from collect_responses.
        self.completion_status: Dict[int, ResponseStatus] = {}
        self.issued = 0
        self.completed = 0
        self.errors = 0
        self.exokay = 0
        self.excl_failures = 0

    # -- state capture ----------------------------------------------------
    # Subclasses extend _snapshot_fields with their own inflight maps.
    # `_latency_stat` is a bind()-time cache into the stats registry (the
    # registry restores in place, so the reference stays valid); wiring
    # (socket, channels) is the fresh build's.
    _snapshot_fields = (
        "_pending",
        "_inflight",
        "_armed_at",
        "_limit_blocked",
        "completion_status",
        "issued",
        "completed",
        "errors",
        "exokay",
        "excl_failures",
    )

    def _snapshot_state(self) -> dict:
        state = super()._snapshot_state()
        state["checker"] = self.checker.snapshot()
        state["traffic"] = self.traffic.snapshot()
        return state

    def _restore_state(self, state) -> None:
        super()._restore_state(state)
        self.checker.restore(state["checker"])
        self.traffic.restore(state["traffic"])

    # ------------------------------------------------------------------ #
    # subclass interface
    # ------------------------------------------------------------------ #
    def try_issue(self, txn: Transaction, cycle: int) -> bool:
        """Push ``txn``'s protocol records and return True, or refuse.

        A refusal has one of two causes: socket backpressure (a request
        channel that cannot be pushed) or state only
        :meth:`collect_responses` changes (the protocol's outstanding
        limit).  No time-based refusals — :meth:`tick` parks a master
        refused while every request channel is pushable until a response
        arrives, so a refusal that lifts by itself would never be retried.
        """
        raise NotImplementedError

    def collect_responses(self, cycle: int) -> List[int]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # common engine
    # ------------------------------------------------------------------ #
    def bind(self, simulator) -> None:
        """Register response-channel wakes so a dormant master (parked by
        the time-skipping kernel while waiting on completions) is put
        back on the schedule the moment a response becomes visible."""
        super().bind(simulator)
        socket = getattr(self, "socket", None)
        if socket is not None:
            for queue in socket.response_channels.values():
                queue.wake_on_push(self)
        # Sources that couple masters to each other (DMA engines waiting
        # on stream-channel tokens, see repro.workloads) need a handle to
        # wake this master when an external signal re-arms them — a
        # dormant master parked by the time-skipping kernel has no other
        # way back onto the schedule.
        bind_traffic = getattr(self.traffic, "bind_master", None)
        if bind_traffic is not None:
            bind_traffic(self)
        # Issue/complete run once per transaction: resolve the latency
        # tracker once instead of a registry lookup per event.
        self._latency_stat = simulator.stats.latency(f"{self.name}.txn")

    # ------------------------------------------------------------------ #
    # time-skipping protocol
    # ------------------------------------------------------------------ #
    def _has_local_completions(self) -> bool:
        """Completions to deliver that are not on a response channel
        (protocols with locally-completed posted writes override)."""
        return False

    def next_event_cycle(self, now: int):
        if self.finished():
            # Traffic fully spent, and true forever: no wake needed.
            # Checked first so a spent master never reaches lookahead
            # (whose eager rng draws are for live sources only).
            return None
        socket = getattr(self, "socket", None)
        if socket is None:
            return now  # unknown subclass wiring: never skip
        for queue in socket.response_channels.values():
            if queue._committed:
                return now  # responses waiting to be collected
        if self._has_local_completions():
            return now
        if self._pending is not None:
            # Refused by our own outstanding limit: dormant until a
            # response (push-wake registered in bind()) lets
            # collect_responses lower it.  Socket backpressure stays hot.
            return None if self._limit_blocked else now
        armed_at = self._armed_at
        if armed_at >= 0:
            return armed_at if armed_at > now else now
        lookahead = getattr(self.traffic, "lookahead", None)
        if lookahead is None:
            return now  # source has no lookahead: poll every cycle
        hint = lookahead(now)
        if hint is None:
            # Dormant until notify_complete — which only happens from our
            # own collect_responses path, reached via the response-channel
            # wake registered in bind().
            return None
        kind, value = hint
        if kind == "at":
            return value if value > now else now
        # "polls": the value-th future poll returns the armed intent.
        # Polls happen at our clock edges (every tick while _pending is
        # None, which lookahead guarantees stays true until then).
        divisor = self._clk_divisor
        if divisor == 1:
            ready = now + value - 1
        else:
            first = now + (self._clk_phase - now) % divisor
            ready = first + (value - 1) * divisor
        self._armed_at = ready
        return ready if ready > now else now

    def tick(self, cycle: int) -> None:
        completed = self.collect_responses(cycle)
        for txn_id in completed:
            self._complete(txn_id, cycle)
        if self._limit_blocked and not completed:
            # Still refused, exactly: the pending intent was refused with
            # every request channel pushable — by the outstanding limit,
            # which only a completion lowers (try_issue's contract) —
            # and only we push those channels, so they are pushable yet.
            return
        if self._pending is None:
            armed_at = self._armed_at
            if armed_at >= 0:
                # Lookahead pending: the source's draws for the cycles up
                # to armed_at were consumed eagerly — do not poll again
                # until the armed intent is due.
                if cycle >= armed_at:
                    self._armed_at = -1
                    self._pending = self.traffic.poll(cycle)
            else:
                self._pending = self.traffic.poll(cycle)
        if self._pending is None:
            return
        if self.try_issue(self._pending, cycle):
            txn = self._pending
            self._pending = None
            self._limit_blocked = False
            txn.issued_cycle = cycle
            self._inflight[txn.txn_id] = txn
            if txn.opcode.expects_response:
                # Posted writes have no response, so they take no part in
                # the response-ordering discipline (paper §3 singles them
                # out as one of the ordering obscurities).
                self.checker.issue(
                    txn.txn_id, thread=txn.thread, txn_tag=txn.txn_tag
                )
            self._latency_stat.start(txn.txn_id, cycle)
            self.issued += 1
        else:
            # Sample the cause now, never later: a consumer ticking after
            # us may pop a full channel this same cycle, and the refusal
            # would then pass for a limit block that no response ends.
            # A limit block also short-circuits the ticks that follow
            # (top of this method) until a completion arrives.
            socket = getattr(self, "socket", None)
            self._limit_blocked = socket is not None and all(
                queue.can_push() for queue in socket.request_channels.values()
            )

    def _complete(self, txn_id: int, cycle: int) -> None:
        txn = self._inflight.pop(txn_id, None)
        if txn is None:
            raise ProtocolError(
                f"{self.name}: completion for unknown txn {txn_id}"
            )
        if txn.opcode.expects_response:
            self.checker.complete(txn_id)
        self._latency_stat.stop(txn_id, cycle)
        status = self.completion_status.pop(txn_id, ResponseStatus.OKAY)
        self.traffic.notify_complete(txn_id, cycle, status)
        self.completed += 1

    def note_status(self, txn_id: int, status: ResponseStatus, excl: bool) -> None:
        """Record per-response status before calling :meth:`_complete`."""
        if status.is_error:
            self.errors += 1
        elif excl and status is ResponseStatus.EXOKAY:
            self.exokay += 1
        elif excl and status is ResponseStatus.OKAY:
            self.excl_failures += 1

    @property
    def outstanding(self) -> int:
        return len(self._inflight)

    def finished(self) -> bool:
        """All traffic generated, issued and completed."""
        return (
            self.traffic.done()
            and self._pending is None
            and not self._inflight
        )

    def inflight_txn(self, txn_id: int) -> Transaction:
        return self._inflight[txn_id]
