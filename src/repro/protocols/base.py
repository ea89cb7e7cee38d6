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
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro.core.ordering import OrderingChecker, OrderingModel
from repro.core.protocols import family
from repro.core.transaction import ResponseStatus, Transaction
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.queue import SimQueue
from repro.sim.stats import Counters


class ProtocolError(RuntimeError):
    """A socket rule was violated (model bug or illegal stimulus)."""


#: Capacity of every master socket channel.
SOCKET_DEPTH = 2


class MasterSocket:
    """Named channels between a master IP and its attachment point.

    The IP side pushes onto *request-direction* channels and pops from
    *response-direction* channels; the NIU/bridge side does the reverse.
    Channel names are the master class's ("req"/"rsp" for AHB-style,
    "ar"/"aw"/"r"/"b" for AXI...).  The socket also carries its
    ``family`` and the ``native_side`` class that reads it, which is all
    an attachment needs to serve it.
    """

    def __init__(self, sim: Simulator, master: ProtocolMaster) -> None:
        self.name = name = f"{master.name}.sock"
        self.family = master.protocol_name
        self.native_side = master.native_side
        self.request_channels: Dict[str, SimQueue] = {
            ch: sim.new_queue(f"{name}.{ch}", capacity=SOCKET_DEPTH)
            for ch in master.request_channels
        }
        self.response_channels: Dict[str, SimQueue] = {
            ch: sim.new_queue(f"{name}.{ch}", capacity=SOCKET_DEPTH)
            for ch in master.response_channels
        }

    def req(self, channel: str) -> SimQueue:
        return self.request_channels[channel]

    def rsp(self, channel: str) -> SimQueue:
        return self.response_channels[channel]


class NativeSide:
    """One socket family's side of a master socket, for whichever
    attachment serves it (an initiator NIU or a bus bridge).

    Subclass contract (one per family, in its protocol module):

    - :meth:`peek` — return the :class:`Transaction` encoded by the
      native request the socket serves next (without consuming it), or
      ``None``; the request record itself is left in :attr:`record`;
    - :meth:`pop` — consume that request;
    - :meth:`respond` — push the native response record for ``txn``
      with ``status`` and read ``data``; return False if the socket
      cannot accept it this cycle.

    A request record carries the master's intent as its ``txn``
    sideband (correlation, not signals): the decoded transaction takes
    its id, master name and priority from it.  ``outstanding`` counts
    what the attachment holds in flight (a request a family answers
    locally, like the MsgPort's FENCE, waits for zero).
    """

    def __init__(
        self, name: str, socket: MasterSocket, outstanding: Callable[[], int]
    ) -> None:
        self.name = name
        self.socket = socket
        self.outstanding = outstanding
        # peek decode cache: a blocked head request is re-peeked every
        # cycle, and native records are immutable once pushed, so peek
        # memoizes the decoded Transaction by record identity (the cache
        # holds a strong reference, so `is` stays sound).
        self.record = None
        self.decoded: Optional[Transaction] = None

    def peek(self, cycle: int) -> Optional[Transaction]:
        raise NotImplementedError

    def pop(self) -> None:
        raise NotImplementedError

    def respond(
        self, txn: Transaction, status: ResponseStatus, data: Optional[List[int]]
    ) -> bool:
        raise NotImplementedError


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
    """What a master IP model pulls intents from (see :mod:`repro.ip.traffic`).

    The master sets ``txn_ids``, the stream every intent's ``txn_id`` is
    drawn from, when it is built."""

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


class ProtocolMaster(Component):
    """Base master IP model.

    Subclass contract:

    - :attr:`protocol_name` — the socket family modelled; its row in
      :mod:`repro.core.protocols` gives :attr:`ordering_model`;
    - :attr:`native_side` — the family's :class:`NativeSide`, which an
      attachment serves the socket with;
    - :attr:`request_channels` / :attr:`response_channels` — the channel
      names ``self.socket`` is built with: its response channels wake a
      dormant master, its request channels tell a limit block from
      backpressure;
    - :meth:`try_issue` — if the pending intent can legally enter the
      socket this cycle, push the protocol records and return True; a
      posted write that completes at acceptance appends its ``txn_id``
      to ``self._posted``;
    - :meth:`collect_responses` — pop whatever response channels have and
      return ``(txn_id, status)`` for every intent answered this cycle,
      the native status read in the transaction layer's vocabulary.
    """

    COUNTERS = Counters(
        "masters", ("issued", "completed", "errors", "excl_failures", "exokay")
    )

    protocol_name = "BASE"
    native_side = NativeSide
    request_channels: Tuple[str, ...] = ()
    response_channels: Tuple[str, ...] = ()

    def __init__(self, name: str, sim: Simulator, traffic: TrafficSource) -> None:
        super().__init__(name)
        self.traffic = traffic
        # The source draws its intents' ids from the SoC's stream; a
        # scripted source's intents exist already, so they are stamped
        # now, in order.
        ids = traffic.txn_ids = sim.txn_ids
        for txn in getattr(traffic, "intents", ()):
            txn.txn_id = next(ids)
        self.socket = MasterSocket(sim, self)
        self.checker = OrderingChecker(model=self.ordering_model, master=name)
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
        # Posted writes accepted by the socket: each completes, OKAY, at
        # the next tick, with no response to wait for.
        self._posted: List[int] = []
        self.issued = 0
        self.completed = 0
        self.errors = 0
        self.exokay = 0
        self.excl_failures = 0

    @property
    def ordering_model(self) -> OrderingModel:
        """The native ordering model: the family row's."""
        return family(self.protocol_name).ordering

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

    def collect_responses(self, cycle: int) -> List[Tuple[int, ResponseStatus]]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # common engine
    # ------------------------------------------------------------------ #
    def bind(self, simulator) -> None:
        """Register response-channel wakes so a dormant master (parked by
        the time-skipping kernel while waiting on completions) is put
        back on the schedule the moment a response becomes visible."""
        super().bind(simulator)
        for queue in self.socket.response_channels.values():
            queue.wake_on_push(self)
        # Sources that couple masters to each other (DMA engines waiting
        # on the SoC's stream-channel token logs, see repro.workloads)
        # need a handle to wake this master when an external signal
        # re-arms them — a dormant master parked by the time-skipping
        # kernel has no other way back onto the schedule.
        bind_traffic = getattr(self.traffic, "bind_master", None)
        if bind_traffic is not None:
            bind_traffic(self, simulator.channels)
        # Issue/complete run once per transaction: resolve the latency
        # tracker once instead of a registry lookup per event.
        self._latency_stat = simulator.stats.latency(f"{self.name}.txn")

    # ------------------------------------------------------------------ #
    # time-skipping protocol
    # ------------------------------------------------------------------ #
    def next_event_cycle(self, now: int):
        if self.finished():
            # Traffic fully spent, and true forever: no wake needed.
            # Checked first so a spent master never reaches lookahead
            # (whose eager rng draws are for live sources only).
            return None
        for queue in self.socket.response_channels.values():
            if queue._committed:
                return now  # responses waiting to be collected
        if self._posted:
            return now  # posted writes to complete
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
        posted = self._posted
        if posted:
            completed[:0] = [(txn_id, ResponseStatus.OKAY) for txn_id in posted]
            posted.clear()
        for txn_id, status in completed:
            self._complete(txn_id, status, cycle)
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
            self._limit_blocked = all(
                queue.can_push() for queue in self.socket.request_channels.values()
            )

    def _complete(self, txn_id: int, status: ResponseStatus, cycle: int) -> None:
        """Retire ``txn_id`` with ``status``: an error, or for an
        exclusive access a won (EXOKAY) or lost (OKAY) reservation, is
        counted here for every family."""
        txn = self._inflight.pop(txn_id, None)
        if txn is None:
            raise ProtocolError(
                f"{self.name}: completion for unknown txn {txn_id}"
            )
        if txn.opcode.expects_response:
            self.checker.complete(txn_id)
        if status.is_error:
            self.errors += 1
        elif txn.excl:
            if status is ResponseStatus.EXOKAY:
                self.exokay += 1
            else:
                self.excl_failures += 1
        self._latency_stat.stop(txn_id, cycle)
        self.traffic.notify_complete(txn_id, cycle, status)
        self.completed += 1

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
