"""A plane's endpoint ports: :class:`InjectionPort` feeds a NIU's packets
to the local router as flits, :class:`EjectionPort` reassembles (and on
adaptive planes resequences) the packets leaving it.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.packet import NocPacket
from repro.sim.component import Component
from repro.sim.queue import SimQueue
from repro.sim.stats import Counters, Histogram
from repro.transport.flit import Flit, Packetizer, Reassembler
from repro.transport.routing import VcPolicy


@functools.cache  # one immutable table per VC count, shared by every port
def _vc_rotations(vcs: int) -> tuple:
    """VC visiting order after last-served VC ``v``: ``v+1 .. v+vcs`` mod ``vcs``."""
    return tuple(tuple((v + k) % vcs for k in range(1, vcs + 1)) for v in range(vcs))


class InjectionPort(Component):
    """Segments packets from a NIU into flits feeding the local router.

    With several VCs the port keeps one pending flit stream per VC (the
    VC chosen per packet by the plane's :class:`VcPolicy`) and pushes at
    most one flit per cycle, round-robin over the VCs with flits staged
    and feed space — one physical channel, per-VC buffering.  A blocked
    packet parks aside into its VC's pending stream, so the *next*
    packet in the queue still reaches the fabric on its own VC; a
    backlog of several blocked packets queues in arrival order (the
    packet queue itself is a shared FIFO — per-VC injection queues are
    an open item, see ROADMAP).

    Each segmented packet's id is drawn from ``packet_ids``, the SoC's
    packet-id stream (``sim.packet_ids``, or a sharded build's stream of
    its own).
    """

    COUNTERS = Counters("injection_ports", ("flits_injected", "packets_injected"))

    def __init__(
        self,
        name: str,
        endpoint: int,
        packetizer: Packetizer,
        packet_ids: Iterator[int],
        packet_queue: SimQueue,
        flit_queues: List[SimQueue],
        vc_policy: Optional[VcPolicy] = None,
    ) -> None:
        super().__init__(name)
        self.endpoint = endpoint
        self.packetizer = packetizer
        self.packet_ids = packet_ids
        self.packet_queue = packet_queue
        self.flit_queues = list(flit_queues)
        self.vcs = len(self.flit_queues)
        self.vc_policy = vc_policy if vc_policy is not None else VcPolicy()
        self._pending: List[List[Flit]] = [[] for _ in range(self.vcs)]
        self._last_vc = self.vcs - 1
        self._rotation = _vc_rotations(self.vcs)
        # The head packet the VC policy last placed, and its VC: the
        # policy is stateless by contract, so a waiting head is asked once.
        self._head_packet: Optional[NocPacket] = None
        self._head_vc = 0
        self.packets_injected = 0
        self.flits_injected = 0
        packet_queue.wake_on_push(self)

    def next_event_cycle(self, now: int):
        """Dormant only when nothing is pending and no packet can be
        segmented (the packet pushes that end that are wake-registered in
        __init__).  A port holding flits blocked on a full feed must stay
        *hot*: a downstream pop frees feed space in the same cycle it
        happens and wakes nobody, and the strict kernel lets a
        later-ticked port use that space immediately."""
        if self.packet_queue._committed:
            return now
        for pending in self._pending:
            if pending:
                return now
        return None

    def tick(self, cycle: int) -> None:
        if self.vcs == 1:
            # Single-VC fast path: no per-VC rotation, and the VC policy
            # (stateless by contract) is consulted only when a packet is
            # actually segmented.
            pending = self._pending[0]
            if not pending and self.packet_queue._committed:
                packet = self.packet_queue.pop()
                packet.injected_cycle = cycle
                pending = self._pending[0] = self.packetizer.segment(
                    packet, next(self.packet_ids)
                )
                self.packets_injected += 1
            if pending and self.flit_queues[0].can_push():
                self.flit_queues[0].push(pending.pop(0))
                self.flits_injected += 1
            return
        pending_by_vc = self._pending
        committed = self.packet_queue._committed
        if committed:
            packet = committed[0]
            if packet is self._head_packet:
                vc = self._head_vc
            else:
                vc = self.vc_policy.injection_vc(packet, self.vcs)
                if not 0 <= vc < self.vcs:
                    raise ValueError(
                        f"{self.name}: VC policy chose injection VC {vc} "
                        f"outside 0..{self.vcs - 1}"
                    )
                self._head_packet, self._head_vc = packet, vc
            if not pending_by_vc[vc]:
                self.packet_queue.pop()
                packet.injected_cycle = cycle
                pending_by_vc[vc] = self.packetizer.segment(
                    packet, next(self.packet_ids), vc=vc
                )
                self.packets_injected += 1
        # One flit per cycle onto the feed, round-robin over ready VCs.
        flit_queues = self.flit_queues
        for vc in self._rotation[self._last_vc]:
            pending = pending_by_vc[vc]
            if pending and flit_queues[vc].can_push():
                flit_queues[vc].push(pending.pop(0))
                self.flits_injected += 1
                self._last_vc = vc
                return


class EjectionPort(Component):
    """Reassembles flits arriving at an endpoint back into packets.

    One reassembler per VC (each VC carries whole packets, never
    interleaved), one flit accepted per cycle round-robin over the VCs;
    completed packets are delivered into ``packet_queue``.

    ``resequence=True`` (adaptive planes) interposes a *reorder buffer*
    between reassembly and delivery: adaptive route choice is per
    packet, so packets between one (source, destination) pair can
    arrive out of order, but the transaction layer — state-table
    response matching, lock managers — is built on the fabric's per-pair
    FIFO contract.  :meth:`Network.inject` stamps every packet with a
    per-(source, destination) sequence number and the ejection port
    releases packets to the endpoint strictly in that order, holding
    later arrivals aside until the gap fills.  Only the tail of the
    *next expected* packet is ever refused (packet-granularity
    backpressure while its delivery queue is full, as on deterministic
    planes); out-of-order arrivals are always absorbed — refusing them
    could starve a gap-filling packet queued behind the refused tail on
    the same ejection VC.  The buffer's occupancy is therefore bounded
    by the traffic in flight towards this endpoint (a parked packet's
    missing predecessor is still in the fabric); ``reorder_high_watermark``
    tracks it.  Deterministic planes skip the machinery entirely
    (identical wiring and timing to the pre-adaptive fabric).
    """

    COUNTERS = Counters("ejection_ports", (
        "packets_ejected", "packets_resequenced", "reorder_high_watermark"))

    def __init__(
        self,
        name: str,
        endpoint: int,
        flit_queues: List[SimQueue],
        packet_queue: SimQueue,
        resequence: bool = False,
        flow_prefix: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.endpoint = endpoint
        # Per-flow latency recording (soc.flow_stats()): every delivered
        # packet's injection-to-delivery latency goes into registry
        # histograms under "<flow_prefix>.prio<p>" and
        # "<flow_prefix>.pair.<src>-><dst>".  None disables recording.
        # The two handles are cached per (priority, source), resolved at
        # that flow's first packet so registry creation order is what
        # per-packet lookups gave.
        self._flow_prefix = flow_prefix
        self._flow_hists: Dict[Tuple[int, int], Tuple[Histogram, Histogram]] = {}
        self.flit_queues = list(flit_queues)
        self.vcs = len(self.flit_queues)
        self.packet_queue = packet_queue
        self.reassemblers = [
            Reassembler(name if self.vcs == 1 else f"{name}.vc{vc}")
            for vc in range(self.vcs)
        ]
        self._last_vc = self.vcs - 1
        self._rotation = _vc_rotations(self.vcs)
        self.packets_ejected = 0
        self.resequence = resequence
        self._rob: Dict[int, Dict[int, NocPacket]] = {}  # src -> seq -> pkt
        self._expected: Dict[int, int] = {}  # src -> next seq to release
        self._rob_count = 0
        # A releasable packet (its pair's next expected) was refused
        # delivery space: the one reorder-buffer state a tick can act on
        # without a new flit (a gap leaves it clear).  A function of _rob
        # and _expected.
        self._rob_blocked = False
        self.reorder_high_watermark = 0
        #: Packets that arrived ahead of a same-pair predecessor and had
        #: to wait in the reorder buffer (adaptive planes only).
        self.packets_resequenced = 0
        for queue in self.flit_queues:
            queue.wake_on_push(self)

    def _record_flow(self, packet: NocPacket, src: int) -> None:
        """Injection-to-delivery latency into the per-flow histograms
        (``src`` is the packet's route source, as its flits carry it)."""
        if self._flow_prefix is None or packet.injected_cycle < 0:
            return
        latency = self._simulator.cycle - packet.injected_cycle
        flow = (packet.priority, src)
        hists = self._flow_hists.get(flow)
        if hists is None:
            stats = self._simulator.stats
            hists = self._flow_hists[flow] = (
                stats.histogram(f"{self._flow_prefix}.prio{packet.priority}"),
                stats.histogram(f"{self._flow_prefix}.pair.{src}->{self.endpoint}"),
            )
        hists[0].add(latency)
        hists[1].add(latency)

    def next_event_cycle(self, now: int):
        """Dormant while no flit is buffered and the reorder buffer, if
        it holds anything, only waits on a gap: the packet that fills
        the gap arrives as flits, and flit-queue pushes are
        wake-registered.  A port holding a tail flit (or a releasable
        reorder-buffer packet, ``_rob_blocked``) blocked on its full
        delivery queue must stay *hot*: the consumer's pop frees queue
        space in the same cycle it happens and wakes nobody, and the
        strict kernel lets a later-ticked port deliver that same
        cycle."""
        if self._rob_blocked:
            return now
        for queue in self.flit_queues:
            if queue._committed:
                return now
        return None

    def tick(self, cycle: int) -> None:
        if self._rob_blocked:
            self._flush_reorder()
        packet_queue = self.packet_queue
        # One flit per cycle; hold a tail until its packet queue has room
        # so backpressure propagates into the fabric at packet granularity
        # — per VC, so a full queue on one VC never stalls the others.
        flit_queues = self.flit_queues
        resequence = self.resequence
        for vc in self._rotation[self._last_vc]:
            committed = flit_queues[vc]._committed
            if not committed:
                continue
            flit = committed[0]
            if flit.seq == flit.count - 1 and not packet_queue.can_push():
                if not resequence:
                    continue
                # Only the tail of its pair's next expected packet is held:
                # the reorder buffer absorbs an out-of-order tail, which
                # could otherwise block the gap-filling packet behind it.
                head = self.reassemblers[vc]._current if flit.seq else flit
                if head.packet.fabric_seq == self._expected.get(flit.src, 0):
                    continue
            flit_queues[vc].pop()
            packet = self.reassemblers[vc].accept(flit)
            if packet is not None:
                if resequence:
                    self._stage_packet(packet, flit.src)
                else:
                    packet_queue.push(packet)
                    self.packets_ejected += 1
                    self._record_flow(packet, flit.src)
            self._last_vc = vc
            return

    # ------------------------------------------------------------------ #
    # resequencing (adaptive planes)
    # ------------------------------------------------------------------ #
    def _stage_packet(self, packet: NocPacket, src: int) -> None:
        expected = self._expected.setdefault(src, 0)
        pending = self._rob.setdefault(src, {})
        pending[packet.fabric_seq] = packet
        self._rob_count += 1
        if self._rob_count > self.reorder_high_watermark:
            self.reorder_high_watermark = self._rob_count
        if packet.fabric_seq != expected:
            self.packets_resequenced += 1
            return  # waits on a gap: nothing became releasable
        # The pair's next expected packet: its tail was not held, so the
        # delivery queue has room, hence no other pair holds a releasable
        # packet (_rob_blocked implies a full queue): only this run moves.
        self._rob_blocked = self._release(src, pending, expected)

    def _flush_reorder(self) -> None:
        """Release every in-order packet its delivery queue can take; a
        releasable packet left behind sets ``_rob_blocked``."""
        refused = [
            self._release(src, self._rob[src], self._expected[src])
            for src in sorted(self._rob)
        ]
        self._rob_blocked = any(refused)

    def _release(
        self, src: int, pending: Dict[int, NocPacket], expected: int
    ) -> bool:
        """Deliver ``src``'s in-order run from ``expected`` while the
        delivery queue has room; True when a releasable packet was
        refused space."""
        out_queue = self.packet_queue
        while expected in pending and out_queue.can_push():
            packet = pending.pop(expected)
            out_queue.push(packet)
            self._rob_count -= 1
            expected += 1
            self.packets_ejected += 1
            self._record_flow(packet, src)
        self._expected[src] = expected
        if not pending:
            del self._rob[src]
        return expected in pending
