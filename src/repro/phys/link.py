"""Physical link: flit serialization into phits, pipelining and CDC.

A transport-layer flit of ``flit_bits`` is carried over a wire bundle of
``phit_bits`` wires; each phit takes one cycle of the producer's clock,
plus a fixed pipeline latency for wire/repeater delay.  When the two ends
sit in different clock domains the link additionally carries the flit
through a synchronizer (``sync_stages`` consumer clock edges — the
classic dual-clock FIFO crossing).  The link is transparent above: it
moves whole flits between two flit queues, just more slowly when narrow,
piped or crossing clocks — the paper's point that physical width and
clocking are invisible to transaction semantics.

:class:`LinkSpec` is the declarative record the SoC configuration layer
uses to request all of this per fabric connection; the default spec is
the ideal full-width, zero-latency wire, which the network wires as a
plain shared queue (zero simulation cost, cycle-identical to a fabric
built with no physical layer at all).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.sim.component import Component
from repro.sim.queue import SimQueue
from repro.sim.snapshot import Snapshottable
from repro.transport.flit import Flit
from repro.transport.flow_control import CreditCounter


def phits_per_flit(flit_bits: int, phit_bits: int) -> int:
    """Cycles to serialize one flit over a ``phit_bits``-wide bundle."""
    if flit_bits < 1 or phit_bits < 1:
        raise ValueError("flit_bits and phit_bits must be >= 1")
    return math.ceil(flit_bits / phit_bits)


@dataclass(frozen=True)
class LinkSpec:
    """Physical configuration of one fabric connection.

    The default instance is the *ideal wire*: full flit width, no
    pipeline stages, no clock crossing.  The network wires an ideal
    same-domain link as one raw shared queue — no link component, no
    extra latency — so a SoC that never mentions the physical layer is
    cycle-identical to one built before it existed.

    Parameters
    ----------
    phit_bits:
        Wire-bundle width.  ``None`` means full flit width (one phit per
        flit); any narrower width serializes each flit over
        ``ceil(flit_bits / phit_bits)`` producer-clock cycles.
    pipeline_latency:
        Extra kernel cycles of wire/repeater delay added to every flit.
    sync_stages:
        Synchronizer depth, in consumer clock edges, applied only when
        the link's two ends are in different clock domains (a CDC).
    capacity:
        Staging-FIFO depth on each side of a non-transparent link;
        ``None`` inherits the network's buffer capacity.
    """

    phit_bits: Optional[int] = None
    pipeline_latency: int = 0
    sync_stages: int = 2
    capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.phit_bits is not None and self.phit_bits < 1:
            raise ValueError("LinkSpec: phit_bits must be >= 1 or None")
        if self.pipeline_latency < 0:
            raise ValueError("LinkSpec: pipeline_latency must be >= 0")
        if self.sync_stages < 1:
            raise ValueError("LinkSpec: sync_stages must be >= 1")
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("LinkSpec: capacity must be >= 1 or None")

    def transparent(self, crosses_domains: bool = False) -> bool:
        """True when this spec can be wired as a raw shared queue."""
        return (
            self.phit_bits is None
            and self.pipeline_latency == 0
            and not crosses_domains
        )


def _domain_name(domain) -> Optional[str]:
    return None if domain is None else domain.name


def _edge_at_or_after(domain, cycle: int) -> int:
    """First clock edge of ``domain`` at or after ``cycle`` (``None`` =
    the kernel reference clock, which has an edge every cycle)."""
    if domain is None:
        return cycle
    return domain.next_edge(cycle)


def domains_cross(producer_domain, consumer_domain) -> bool:
    """True when two link ends are asynchronous to each other.

    Domains are compared by *name* (``None`` = the kernel reference
    clock): two differently-named domains are asynchronous even at equal
    ratios, so a crossing needs a synchronizer.  This is the single
    source of truth for both the network's wiring decision (transparent
    queue vs link component) and the link's own CDC decision.
    """
    return _domain_name(producer_domain) != _domain_name(consumer_domain)


class PhysicalLink(Component, Snapshottable):
    """Serializing, pipelined point-to-point link between two flit queues.

    Parameters
    ----------
    flit_bits / phit_bits:
        Determines the serialization factor (1 = full-width link).
    pipeline_latency:
        Extra cycles of wire delay added to every flit (0 = none).
    producer_domain / consumer_domain:
        Clock domains of the two ends (``None`` = kernel reference
        clock).  Serialization advances on producer edges and delivery on
        consumer edges.  When the ends are in *different* domains the
        link synchronizes every flit for ``sync_stages`` consumer edges —
        the CDC is part of the link, not a bolt-on.

    Activity contract: the link registers ``wake_on_push`` with its
    upstream queue and ``wake_on_pop`` with its downstream queue, and
    it is dormant only when nothing is buffered upstream, shifting,
    piped, crossing or awaiting delivery — so serialized links retire
    from the schedule exactly like any other component.  The link
    itself is never domain-gated by the kernel (it spans two domains);
    it self-gates each side on the matching domain's edges.
    """

    def __init__(
        self,
        name: str,
        upstream: SimQueue,
        downstream: SimQueue,
        flit_bits: int = 72,
        phit_bits: int = 72,
        pipeline_latency: int = 0,
        producer_domain=None,
        consumer_domain=None,
        sync_stages: int = 2,
    ) -> None:
        super().__init__(name)
        if pipeline_latency < 0:
            raise ValueError("pipeline latency must be >= 0")
        if sync_stages < 1:
            raise ValueError("sync_stages must be >= 1")
        self.upstream = upstream
        self.downstream = downstream
        self.flit_bits = flit_bits
        self.phit_bits = phit_bits
        self.pipeline_latency = pipeline_latency
        self.producer_domain = producer_domain
        self.consumer_domain = consumer_domain
        self.sync_stages = sync_stages
        # Asynchronous ends (see domains_cross): every flit takes the
        # synchronizer.
        self.crosses_domains = domains_cross(producer_domain, consumer_domain)
        self.serialization = phits_per_flit(flit_bits, phit_bits)
        self._shifting: Optional[Tuple[Flit, int]] = None  # (flit, phits left)
        self._pipe: Deque[Tuple[int, Flit]] = deque()  # (ready cycle, flit)
        self._crossing: Deque[List] = deque()  # [consumer edges left, flit]
        self._deliver: Deque[Flit] = deque()  # synchronized, awaiting room
        # Edge bookkeeping for the time-skipping kernel: shifting and
        # synchronizer aging are *internal* per-edge state (nothing
        # outside the link can observe a partially shifted flit), so a
        # tick that lands after skipped cycles catches the countdowns up
        # by the number of elapsed edges.  These record the last edge on
        # which each side ran, so elapsed edges are exact.
        self._shift_edge = -1  # producer edge of the last shift/start
        self._cross_edge = -1  # last consumer edge the link ticked on
        self._max_in_flight = pipeline_latency + 1 + (
            sync_stages if self.crosses_domains else 0
        )
        # Integer clock gates (divisor/phase) so the per-tick edge tests
        # are two arithmetic compares instead of method calls.
        self._pdiv = 1 if producer_domain is None else producer_domain.divisor
        self._ppha = 0 if producer_domain is None else producer_domain.phase
        self._cdiv = 1 if consumer_domain is None else consumer_domain.divisor
        self._cpha = 0 if consumer_domain is None else consumer_domain.phase
        self.flits_carried = 0
        self.phits_carried = 0
        upstream.wake_on_push(self)
        downstream.wake_on_pop(self)

    # ------------------------------------------------------------------ #
    # activity protocol
    # ------------------------------------------------------------------ #
    @property
    def in_flight(self) -> int:
        """Flits somewhere inside the link (not counting upstream)."""
        return (
            (1 if self._shifting is not None else 0)
            + len(self._pipe)
            + len(self._crossing)
            + len(self._deliver)
        )

    def idle(self) -> bool:
        """No flit on the wires or in the synchronizer (drain check)."""
        return self.in_flight == 0

    def next_event_cycle(self, now: int):
        """Next clock edge on which this link's tick changes *visible*
        state.

        Shifting and synchronizer aging are internal countdowns that the
        tick catches up across skipped edges, so their events are the
        countdowns' completion edges, not every edge: the shift ends at
        the ``remaining``-th producer edge after the last shift tick and
        the synchronizer's head flit matures (and is delivered) at its
        ``edges-left``-th consumer edge — nothing outside the link can
        tell the intermediate edges happened or not.  Pipeline maturation
        and blocked delivery contribute their own consumer edges, an
        idle-but-fed producer its next edge; a fully empty link is
        dormant (upstream-push / downstream-pop wakes re-arm it).
        """
        producer = self.producer_domain
        consumer = self.consumer_domain
        best = None
        shifting = self._shifting
        if shifting is not None:
            best = self._shift_edge + shifting[1] * self._pdiv
            if best < now:  # defensive: never propose the past
                best = _edge_at_or_after(producer, now)
        elif self.upstream._committed and self.in_flight < self._max_in_flight:
            best = _edge_at_or_after(producer, now)
        if self._deliver:
            event = _edge_at_or_after(consumer, now)
            if best is None or event < best:
                best = event
        if self._crossing:
            event = self._cross_edge + self._crossing[0][0] * self._cdiv
            if event < now:
                event = _edge_at_or_after(consumer, now)
            if best is None or event < best:
                best = event
        if self._pipe:
            ready = self._pipe[0][0]
            event = _edge_at_or_after(consumer, ready if ready > now else now)
            if best is None or event < best:
                best = event
        return best

    # ------------------------------------------------------------------ #
    # the cycle
    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        cdiv = self._cdiv
        if cdiv == 1 or cycle % cdiv == self._cpha:
            last_edge = self._cross_edge
            self._cross_edge = cycle
            if self.crosses_domains:
                # Age the synchronizer; flits mature strictly in order
                # (all entries share sync_stages).  When the kernel
                # skipped edges (it never skips past the head flit's
                # maturation — see next_event_cycle), the aging catches
                # up by the number of elapsed consumer edges.
                if self._crossing:
                    if last_edge < 0:
                        edges = 1
                    else:
                        edges = (cycle - last_edge) // cdiv
                    for entry in self._crossing:
                        entry[0] -= edges
                    while self._crossing and self._crossing[0][0] <= 0:
                        self._deliver.append(self._crossing.popleft()[1])
                # Pipeline-matured flits enter the synchronizer.
                while self._pipe and self._pipe[0][0] <= cycle:
                    __, flit = self._pipe.popleft()
                    self._crossing.append([self.sync_stages, flit])
                # Deliver synchronized flits while downstream has room.
                while self._deliver and self.downstream.can_push():
                    self.downstream.push(self._deliver.popleft())
                    self.flits_carried += 1
            elif self._pipe:
                # Same-domain link: deliver flits whose pipeline matured.
                while self._pipe and self._pipe[0][0] <= cycle:
                    if not self.downstream.can_push():
                        break
                    __, flit = self._pipe.popleft()
                    self.downstream.push(flit)
                    self.flits_carried += 1

        pdiv = self._pdiv
        if pdiv != 1 and cycle % pdiv != self._ppha:
            return

        # Shift phits of the flit currently on the wires, catching up
        # over skipped producer edges (the kernel never skips past the
        # completion edge, where the flit enters the wire pipeline).
        if self._shifting is not None:
            flit, remaining = self._shifting
            edges = (cycle - self._shift_edge) // pdiv
            self._shift_edge = cycle
            if edges > remaining:
                edges = remaining  # keep the phit counter exact
            remaining -= edges
            self.phits_carried += edges
            if remaining <= 0:
                # +1: the last phit lands this cycle, the flit is whole at
                # the far end next cycle, plus any pipeline stages.
                self._pipe.append((cycle + 1 + self.pipeline_latency, flit))
                self._shifting = None
            else:
                self._shifting = (flit, remaining)
            return

        # Start serializing the next flit, with lookahead backpressure:
        # never take a flit off the upstream queue unless the in-flight
        # window (pipe + synchronizer + delivery staging) has room, so a
        # blocked downstream stalls the wires instead of dropping flits.
        # (_shifting is None here — the shift branch above returned.)
        if self.upstream._committed and (
            len(self._pipe) + len(self._crossing) + len(self._deliver)
            < self._max_in_flight
        ):
            flit = self.upstream.pop()
            self._shifting = (flit, self.serialization)
            self._shift_edge = cycle

    @property
    def bandwidth_bits_per_cycle(self) -> float:
        """Peak payload bandwidth of this link (producer-clock cycles)."""
        return self.flit_bits / self.serialization

    @property
    def latency_cycles(self) -> int:
        """Cycles from first phit to delivery for one flit (same-domain;
        a CDC adds ``sync_stages`` consumer edges on top)."""
        return self.serialization + self.pipeline_latency

    # ------------------------------------------------------------------ #
    # state capture
    # ------------------------------------------------------------------ #
    _snapshot_fields = (
        "_shifting",
        "_pipe",
        "_crossing",
        "_deliver",
        "_shift_edge",
        "_cross_edge",
        "flits_carried",
        "phits_carried",
    )


class VcPhysicalLink(Component, Snapshottable):
    """One physical channel time-multiplexing several virtual channels.

    The hardware reality virtual channels model: per-VC buffers at both
    ends, **one** set of wires in between.  ``upstreams[v]`` /
    ``downstreams[v]`` are the per-VC staging queues; the link serializes
    one flit at a time over the shared ``phit_bits`` bundle, choosing the
    next VC round-robin among those with a flit staged *and* a credit
    available.  Credits are per VC (:class:`CreditCounter`, capacity =
    the downstream buffer depth): a credit is consumed when a flit
    leaves the upstream queue and returned — ``credit_return_latency``
    producer edges later — when the downstream buffer drains, so a
    blocked VC stalls only itself while the wires keep carrying the
    other VCs.  Because every in-flight flit holds a credit, delivery
    can never find its downstream buffer full; flits therefore never
    reorder *within* a VC, while VCs interleave freely on the wires.

    Pipelining and CDC behave as in :class:`PhysicalLink`: serialization
    advances on producer edges, delivery on consumer edges, and when the
    two ends sit in different clock domains every flit takes
    ``sync_stages`` consumer edges through the synchronizer.

    Activity contract: the link wakes on any upstream push or downstream
    pop, and it is dormant only when nothing is staged, in flight, *or
    awaiting credit maturation* — credit bookkeeping advances in
    :meth:`tick`, so the link must stay scheduled until every counter is
    full again or the strict and activity kernels would disagree.
    """

    def __init__(
        self,
        name: str,
        upstreams: List[SimQueue],
        downstreams: List[SimQueue],
        flit_bits: int = 72,
        phit_bits: int = 72,
        pipeline_latency: int = 0,
        producer_domain=None,
        consumer_domain=None,
        sync_stages: int = 2,
        credit_return_latency: int = 1,
    ) -> None:
        super().__init__(name)
        if len(upstreams) != len(downstreams) or not upstreams:
            raise ValueError(f"{name}: need matching per-VC queue lists")
        if pipeline_latency < 0:
            raise ValueError("pipeline latency must be >= 0")
        if sync_stages < 1:
            raise ValueError("sync_stages must be >= 1")
        self.vcs = len(upstreams)
        self.upstreams = list(upstreams)
        self.downstreams = list(downstreams)
        self.flit_bits = flit_bits
        self.phit_bits = phit_bits
        self.pipeline_latency = pipeline_latency
        self.producer_domain = producer_domain
        self.consumer_domain = consumer_domain
        self.sync_stages = sync_stages
        self.crosses_domains = domains_cross(producer_domain, consumer_domain)
        self.serialization = phits_per_flit(flit_bits, phit_bits)
        self.credits: List[CreditCounter] = []
        for vc, queue in enumerate(self.downstreams):
            if queue.capacity is None:
                raise ValueError(
                    f"{name}: VC {vc} delivery queue must be bounded "
                    f"(credits track its depth)"
                )
            self.credits.append(
                CreditCounter(queue.capacity, credit_return_latency)
            )
        self._shifting: Optional[Tuple[int, Flit, int]] = None  # (vc, flit, left)
        self._pipe: Deque[Tuple[int, int, Flit]] = deque()  # (ready, vc, flit)
        self._crossing: Deque[List] = deque()  # [edges left, vc, flit]
        self._in_flight_vc = [0] * self.vcs
        self._next_vc = 0
        self.flits_carried = 0
        self.phits_carried = 0
        self.flits_per_vc = [0] * self.vcs
        for queue in self.upstreams:
            queue.wake_on_push(self)
        for queue in self.downstreams:
            queue.wake_on_pop(self)

    # ------------------------------------------------------------------ #
    # activity protocol
    # ------------------------------------------------------------------ #
    @property
    def in_flight(self) -> int:
        """Flits somewhere inside the link (not counting upstream)."""
        return (
            (1 if self._shifting is not None else 0)
            + len(self._pipe)
            + len(self._crossing)
        )

    def idle(self) -> bool:
        """No flit on the wires or in the synchronizer (drain check)."""
        return self.in_flight == 0

    def next_event_cycle(self, now: int):
        """Like :meth:`PhysicalLink.next_event_cycle`, with one extra
        producer-side clause: credit bookkeeping (maturation and the
        drain-driven give-back) advances on every producer edge while any
        counter is below capacity, so those edges stay unskippable until
        the credit loop is whole again."""
        producer = self.producer_domain
        consumer = self.consumer_domain
        best = None
        if (
            self._shifting is not None
            or any(queue._committed for queue in self.upstreams)
            or any(c._available != c.capacity for c in self.credits)
        ):
            best = _edge_at_or_after(producer, now)
        if self.crosses_domains and self._crossing:
            event = _edge_at_or_after(consumer, now)
            if best is None or event < best:
                best = event
        elif self._pipe:
            ready = self._pipe[0][0]
            event = _edge_at_or_after(consumer, ready if ready > now else now)
            if best is None or event < best:
                best = event
        return best

    # ------------------------------------------------------------------ #
    # the cycle
    # ------------------------------------------------------------------ #
    def _deliver(self, vc: int, flit: Flit) -> None:
        # A held credit guarantees the downstream buffer has room.
        self.downstreams[vc].push(flit)
        self._in_flight_vc[vc] -= 1
        self.flits_carried += 1
        self.flits_per_vc[vc] += 1

    def tick(self, cycle: int) -> None:
        producer = self.producer_domain
        consumer = self.consumer_domain
        on_consumer = consumer is None or consumer.active(cycle)

        if on_consumer:
            if self.crosses_domains:
                if self._crossing:
                    for entry in self._crossing:
                        entry[0] -= 1
                    while self._crossing and self._crossing[0][0] <= 0:
                        __, vc, flit = self._crossing.popleft()
                        self._deliver(vc, flit)
                while self._pipe and self._pipe[0][0] <= cycle:
                    __, vc, flit = self._pipe.popleft()
                    self._crossing.append([self.sync_stages, vc, flit])
            else:
                while self._pipe and self._pipe[0][0] <= cycle:
                    __, vc, flit = self._pipe.popleft()
                    self._deliver(vc, flit)

        if producer is not None and not producer.active(cycle):
            return

        # Sender-side credit loop: mature in-flight returns, then return
        # credits for flits the downstream consumer has drained since the
        # last producer edge (CreditCounter.step: everything outstanding
        # that is neither on our wires, buffered downstream nor already
        # travelling back).
        in_flight_vc = self._in_flight_vc
        downstreams = self.downstreams
        for vc, credit in enumerate(self.credits):
            credit.step(in_flight_vc[vc] + downstreams[vc]._occ)

        # Shift phits of the flit currently on the wires.
        if self._shifting is not None:
            vc, flit, remaining = self._shifting
            remaining -= 1
            self.phits_carried += 1
            if remaining == 0:
                # +1: the last phit lands this cycle, the flit is whole at
                # the far end next cycle, plus any pipeline stages.
                self._pipe.append((cycle + 1 + self.pipeline_latency, vc, flit))
                self._shifting = None
            else:
                self._shifting = (vc, flit, remaining)
            return

        # Start serializing the next flit: round-robin over VCs with a
        # flit staged and a credit in hand, so one blocked VC never
        # claims the wires.
        for offset in range(self.vcs):
            vc = (self._next_vc + offset) % self.vcs
            if self.upstreams[vc] and self.credits[vc].can_send():
                flit = self.upstreams[vc].pop()
                self.credits[vc].consume()
                self._in_flight_vc[vc] += 1
                self._shifting = (vc, flit, self.serialization)
                self._next_vc = (vc + 1) % self.vcs
                return

    @property
    def bandwidth_bits_per_cycle(self) -> float:
        """Peak payload bandwidth of this link (producer-clock cycles)."""
        return self.flit_bits / self.serialization

    @property
    def latency_cycles(self) -> int:
        """Cycles from first phit to delivery for one flit (same-domain;
        a CDC adds ``sync_stages`` consumer edges on top)."""
        return self.serialization + self.pipeline_latency

    # ------------------------------------------------------------------ #
    # state capture
    # ------------------------------------------------------------------ #
    _snapshot_fields = (
        "_shifting",
        "_pipe",
        "_crossing",
        "_in_flight_vc",
        "_next_vc",
        "flits_carried",
        "phits_carried",
        "flits_per_vc",
    )

    def _snapshot_state(self) -> dict:
        state = super()._snapshot_state()
        state["credits"] = [c.snapshot() for c in self.credits]
        return state

    def _restore_state(self, state) -> None:
        super()._restore_state(state)
        for credit, envelope in zip(self.credits, state["credits"]):
            credit.restore(envelope)
