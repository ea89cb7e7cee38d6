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
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.component import Component
from repro.sim.queue import SimQueue
from repro.sim.stats import Counters
from repro.transport.flit import Flit


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


def domains_cross(producer_domain, consumer_domain) -> bool:
    """True when two link ends are asynchronous to each other.

    Domains are compared by *name* (``None`` = the kernel reference
    clock): two differently-named domains are asynchronous even at equal
    ratios, so a crossing needs a synchronizer.  This is the single
    source of truth for both the network's wiring decision (transparent
    queue vs link component) and the link's own CDC decision.
    """
    return _domain_name(producer_domain) != _domain_name(consumer_domain)


class PhysicalLink(Component):
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
    upstream queue only, and it is dormant only when nothing is buffered
    upstream, shifting, piped, crossing or awaiting delivery — so
    serialized links retire from the schedule exactly like any other
    component.  A flit blocked on a full downstream queue keeps the link
    hot on its consumer edges, so a downstream pop needs no wake.  The link
    itself is never domain-gated by the kernel (it spans two domains);
    it self-gates each side on the matching domain's edges.  A side that
    holds work names its next edge and counts down one edge per tick, so
    the kernel never skips an edge on which a countdown moves.
    """

    COUNTERS = Counters("links", ("phits_carried",))

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
        self.sync_stages = sync_stages
        # Asynchronous ends (see domains_cross): every flit takes the
        # synchronizer.
        self.crosses_domains = domains_cross(producer_domain, consumer_domain)
        self.serialization = phits_per_flit(flit_bits, phit_bits)
        self._shifting: Optional[Tuple[Flit, int]] = None  # (flit, phits left)
        self._pipe: List[Tuple[int, Flit]] = []  # (ready cycle, flit)
        self._crossing: List[List] = []  # [consumer edges left, flit]
        self._deliver: List[Flit] = []  # synchronized, awaiting room
        self._max_in_flight = pipeline_latency + 1 + (
            sync_stages if self.crosses_domains else 0
        )
        # Integer clock gates: a side has an edge where cycle % div == pha,
        # and its first edge at or after a cycle is cycle + (pha - cycle) %
        # div, the kernel's own alignment.
        self._pdiv = 1 if producer_domain is None else producer_domain.divisor
        self._ppha = 0 if producer_domain is None else producer_domain.phase
        self._cdiv = 1 if consumer_domain is None else consumer_domain.divisor
        self._cpha = 0 if consumer_domain is None else consumer_domain.phase
        self.phits_carried = 0
        upstream.wake_on_push(self)

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

    def next_event_cycle(self, now: int):
        """Next clock edge on which this link's tick may act: the next
        producer edge while a flit is shifting, or while the upstream
        queue holds a flit and the in-flight window has room; the next
        consumer edge while a flit is crossing the synchronizer or
        awaiting delivery; and the consumer edge on which the head piped
        flit matures.  A fully empty link is dormant (an upstream
        push-wake re-arms it)."""
        best = None
        if self._shifting is not None or (
            self.upstream._committed and self.in_flight < self._max_in_flight
        ):
            best = now + (self._ppha - now) % self._pdiv
        if self._crossing or self._deliver:
            event = now + (self._cpha - now) % self._cdiv
            if best is None or event < best:
                best = event
        elif self._pipe:
            ready = self._pipe[0][0]
            if ready < now:
                ready = now
            event = ready + (self._cpha - ready) % self._cdiv
            if best is None or event < best:
                best = event
        return best

    # ------------------------------------------------------------------ #
    # the cycle
    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        cdiv = self._cdiv
        if cdiv == 1 or cycle % cdiv == self._cpha:
            if self.crosses_domains:
                # Age the synchronizer one consumer edge; flits mature
                # strictly in order (all entries share sync_stages).
                if self._crossing:
                    for entry in self._crossing:
                        entry[0] -= 1
                    while self._crossing and self._crossing[0][0] <= 0:
                        self._deliver.append(self._crossing.pop(0)[1])
                # Pipeline-matured flits enter the synchronizer.
                while self._pipe and self._pipe[0][0] <= cycle:
                    __, flit = self._pipe.pop(0)
                    self._crossing.append([self.sync_stages, flit])
                # Deliver synchronized flits while downstream has room.
                while self._deliver and self.downstream.can_push():
                    self.downstream.push(self._deliver.pop(0))
            elif self._pipe:
                # Same-domain link: deliver flits whose pipeline matured.
                while self._pipe and self._pipe[0][0] <= cycle:
                    if not self.downstream.can_push():
                        break
                    __, flit = self._pipe.pop(0)
                    self.downstream.push(flit)

        pdiv = self._pdiv
        if pdiv != 1 and cycle % pdiv != self._ppha:
            return

        # Shift one phit of the flit currently on the wires.
        if self._shifting is not None:
            flit, remaining = self._shifting
            remaining -= 1
            self.phits_carried += 1
            if remaining == 0:
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
        if self.upstream._committed and (
            len(self._pipe) + len(self._crossing) + len(self._deliver)
            < self._max_in_flight
        ):
            self._shifting = (self.upstream.pop(), self.serialization)


class VcPhysicalLink(Component):
    """One physical channel time-multiplexing several virtual channels.

    The hardware reality virtual channels model: per-VC buffers at both
    ends, **one** set of wires in between.  ``upstreams[v]`` /
    ``downstreams[v]`` are the per-VC staging queues; the link serializes
    one flit at a time over the shared ``phit_bits`` bundle, choosing the
    next VC round-robin among those with a flit staged *and* a credit
    available.  Credits are per-VC integers, one per slot of the
    downstream buffer: a credit is taken when a flit leaves the upstream
    queue, and a slot the downstream consumer drains is given back on
    the next producer edge and usable on the one after, so a blocked VC
    stalls only itself while the wires keep carrying the other VCs.
    Because every in-flight flit holds a credit, delivery can never find
    its downstream buffer full; flits therefore never reorder *within* a
    VC, while VCs interleave freely on the wires.

    Pipelining and CDC behave as in :class:`PhysicalLink`: serialization
    advances on producer edges, delivery on consumer edges, and when the
    two ends sit in different clock domains every flit takes
    ``sync_stages`` consumer edges through the synchronizer.

    Activity contract: the link wakes on any upstream push, and it is
    dormant only when nothing is staged, in flight, *or awaiting a
    credit* — the credit loop advances in :meth:`tick`, so the link must
    stay scheduled until every VC holds all its credits again or the
    strict and activity kernels would disagree.  That same rule keeps
    it scheduled while any delivered flit is still buffered downstream
    (its credit is out), so a downstream pop needs no wake.
    """

    COUNTERS = Counters("links", ("phits_carried",))

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
        self.pipeline_latency = pipeline_latency
        self.sync_stages = sync_stages
        self.crosses_domains = domains_cross(producer_domain, consumer_domain)
        self.serialization = phits_per_flit(flit_bits, phit_bits)
        for vc, queue in enumerate(self.downstreams):
            if queue.capacity is None:
                raise ValueError(
                    f"{name}: VC {vc} delivery queue must be bounded "
                    f"(credits track its depth)"
                )
        # Per VC: credits usable now, credits given back on the last
        # producer edge (usable on the next), and the downstream depth.
        self._capacities = [queue.capacity for queue in self.downstreams]
        self._credits = list(self._capacities)
        self._returning = [0] * self.vcs
        self._shifting: Optional[Tuple[int, Flit, int]] = None  # (vc, flit, left)
        self._pipe: List[Tuple[int, int, Flit]] = []  # (ready, vc, flit)
        self._crossing: List[List] = []  # [edges left, vc, flit]
        self._in_flight_vc = [0] * self.vcs
        self._next_vc = 0
        self.phits_carried = 0
        # Integer clock gates (divisor/phase), as in PhysicalLink.  The link
        # keeps neither its ClockDomain objects nor its flit and phit widths:
        # at 30 instance attributes CPython 3.11 stops sharing dict keys, and
        # the 256-router fabric's 1,920 links then held 2.1 MB more per build.
        self._pdiv = 1 if producer_domain is None else producer_domain.divisor
        self._ppha = 0 if producer_domain is None else producer_domain.phase
        self._cdiv = 1 if consumer_domain is None else consumer_domain.divisor
        self._cpha = 0 if consumer_domain is None else consumer_domain.phase
        for queue in self.upstreams:
            queue.wake_on_push(self)

    # ------------------------------------------------------------------ #
    # activity protocol
    # ------------------------------------------------------------------ #
    def next_event_cycle(self, now: int):
        """Like :meth:`PhysicalLink.next_event_cycle`, with one extra
        producer-side clause: the credit loop advances on every producer
        edge while any VC is short of credits, so those edges stay
        unskippable until every VC holds all its credits again."""
        best = None
        if (
            self._shifting is not None
            or any(queue._committed for queue in self.upstreams)
            or self._credits != self._capacities
        ):
            best = now + (self._ppha - now) % self._pdiv
        if self.crosses_domains and self._crossing:
            event = now + (self._cpha - now) % self._cdiv
            if best is None or event < best:
                best = event
        elif self._pipe:
            ready = self._pipe[0][0]
            if ready < now:
                ready = now
            event = ready + (self._cpha - ready) % self._cdiv
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

    def tick(self, cycle: int) -> None:
        cdiv = self._cdiv
        if cdiv == 1 or cycle % cdiv == self._cpha:
            if self.crosses_domains:
                if self._crossing:
                    for entry in self._crossing:
                        entry[0] -= 1
                    while self._crossing and self._crossing[0][0] <= 0:
                        __, vc, flit = self._crossing.pop(0)
                        self._deliver(vc, flit)
                while self._pipe and self._pipe[0][0] <= cycle:
                    __, vc, flit = self._pipe.pop(0)
                    self._crossing.append([self.sync_stages, vc, flit])
            else:
                while self._pipe and self._pipe[0][0] <= cycle:
                    __, vc, flit = self._pipe.pop(0)
                    self._deliver(vc, flit)

        pdiv = self._pdiv
        if pdiv != 1 and cycle % pdiv != self._ppha:
            return

        # Sender-side credit loop: last edge's returns become usable, and
        # each slot the downstream consumer drained since starts back.
        credits, capacities = self._credits, self._capacities
        if credits != capacities:
            returning, in_flight = self._returning, self._in_flight_vc
            for vc, queue in enumerate(self.downstreams):
                available = credits[vc] + returning[vc]
                freed = capacities[vc] - available - in_flight[vc] - queue._occ
                returning[vc] = freed if freed > 0 else 0
                credits[vc] = available

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

        # Start serializing the next flit: round-robin over VCs with a flit
        # staged and a credit in hand, so one blocked VC never claims the wires.
        for offset in range(self.vcs):
            vc = (self._next_vc + offset) % self.vcs
            if self.upstreams[vc] and credits[vc]:
                flit = self.upstreams[vc].pop()
                credits[vc] -= 1
                self._in_flight_vc[vc] += 1
                self._shifting = (vc, flit, self.serialization)
                self._next_vc = (vc + 1) % self.vcs
                return
