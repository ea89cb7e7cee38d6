"""Minimal-adaptive routing with escape VCs (PR 4).

The tentpole machinery: multi-output minimal route tables, the
EscapeVcPolicy adaptive/escape VC split, congestion-aware output/VC
selection in the router's VC-allocation stage, per-pair resequencing at
ejection, and the deadlock-freedom contract — adversarial workloads that
freeze under pure minimal-adaptive routing (no escape class) and
complete once the escape subnetwork is in place.  Also pins the one-cycle
lock-admission window at VC allocation (ROADMAP open item).
"""

import pytest

from repro.core.packet import NocPacket, PacketKind
from repro.core.transaction import Opcode
from repro.ip.masters import random_workload, sync_workload
from repro.sim.fingerprint import reset_ids
from repro.sim.kernel import SimulationError, Simulator
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.transport import topology as topo
from repro.transport.flit import Packetizer
from repro.transport.network import EjectionPort, Network
from repro.transport.router import Router
from repro.transport.routing import (
    EscapeVcPolicy,
    compute_adaptive_tables,
    compute_tables,
    make_vc_policy,
    port_local,
    port_to,
)


def request(slv, mst, opcode=Opcode.LOAD, beats=1, priority=0, txn_id=-1,
            payload=None):
    return NocPacket(
        kind=PacketKind.REQUEST,
        opcode=opcode,
        slv_addr=slv,
        mst_addr=mst,
        tag=0,
        beats=beats,
        payload=payload,
        priority=priority,
        txn_id=txn_id,
    )


def pump_all(sim, net, endpoints, expected, max_cycles):
    received = []

    def pump():
        for ep in endpoints:
            queue = net.ejected(ep)
            while queue:
                received.append(queue.pop())
        return len(received) >= expected

    sim.run_until(pump, max_cycles=max_cycles)
    return received


# ---------------------------------------------------------------------- #
# multi-output route tables
# ---------------------------------------------------------------------- #
class TestAdaptiveTables:
    def test_torus_minimal_quadrant(self):
        t = topo.torus(4, 4)
        tables = compute_adaptive_tables(t)
        # endpoint 15 lives at (3, 3); from (1, 1) both dimensions have
        # offset 2 = an even split, so all four neighbours are minimal.
        assert tables[(1, 1)].outputs(15) == (
            port_to((0, 1)), port_to((1, 0)), port_to((1, 2)), port_to((2, 1))
        )
        # endpoint 0 at (0, 0): unique minimal direction per dimension.
        assert tables[(1, 1)].outputs(0) == (port_to((0, 1)), port_to((1, 0)))

    def test_escape_is_minimal_and_matches_dor(self):
        t = topo.torus(4, 4)
        tables = compute_adaptive_tables(t)
        dor = compute_tables(t, "dor")
        for router, table in tables.items():
            for endpoint in t.endpoints:
                assert table.escape_port(endpoint) == dor[router][endpoint]
                assert table.escape_port(endpoint) in table.outputs(endpoint)

    def test_mesh_escape_falls_back_to_xy(self):
        t = topo.mesh(3, 3)
        tables = compute_adaptive_tables(t)
        xy = compute_tables(t, "xy")
        for router, table in tables.items():
            for endpoint in t.endpoints:
                assert table.escape_port(endpoint) == xy[router][endpoint]

    def test_home_router_ejects(self):
        t = topo.ring(4)
        tables = compute_adaptive_tables(t)
        home = t.router_of(2)
        assert tables[home].outputs(2) == (port_local(2),)
        assert tables[home].escape_port(2) == port_local(2)

    def test_every_candidate_is_strictly_closer(self):
        t = topo.torus(4, 4)
        tables = compute_adaptive_tables(t)
        for router in t.routers:
            for endpoint in t.endpoints:
                home = t.router_of(endpoint)
                if router == home:
                    continue
                dist = t.distances_to(home)
                for port in tables[router].outputs(endpoint):
                    neighbor = next(
                        n for n in t.neighbors(router)
                        if port == port_to(n)
                    )
                    assert dist[neighbor] < dist[router]

    def test_compute_tables_rejects_adaptive(self):
        with pytest.raises(ValueError):
            compute_tables(topo.ring(4), "adaptive")

    def test_arbitrary_graph_falls_back_to_bfs_escape(self):
        """Non-numeric router ids (irregular floorplans) have no DOR/XY
        geometry; the escape table must fall back to BFS tables instead
        of crashing on the id arithmetic, and the fabric still delivers."""
        t = topo.custom(
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
            {0: "a", 1: "c", 2: "d"},
            name="floorplan",
        )
        tables = compute_adaptive_tables(t)
        bfs = compute_tables(t, "table")
        for router, table in tables.items():
            for endpoint in t.endpoints:
                assert table.escape_port(endpoint) == bfs[router][endpoint]
        sim = Simulator()
        net = Network(sim, t, routing="adaptive", vcs=3)
        net.inject(0, request(2, 0, opcode=Opcode.STORE, beats=4,
                              payload=[0] * 4, txn_id=5))
        got = pump_all(sim, net, [2], 1, max_cycles=2000)
        assert got[0].txn_id == 5


# ---------------------------------------------------------------------- #
# the escape VC policy
# ---------------------------------------------------------------------- #
class TestEscapeVcPolicy:
    def test_class_split(self):
        policy = EscapeVcPolicy()
        assert policy.min_vcs == 3
        assert policy.adaptive_vcs(4) == 2
        assert policy.escape_base(4) == 2
        assert not policy.is_escape_vc(1, 4)
        assert policy.is_escape_vc(2, 4) and policy.is_escape_vc(3, 4)

    def test_pure_adaptive_ablation(self):
        policy = EscapeVcPolicy(escape=False)
        assert policy.min_vcs == 1
        assert policy.adaptive_vcs(2) == 2
        assert not policy.is_escape_vc(1, 2)

    def test_escape_dateline_classes(self):
        policy = EscapeVcPolicy()
        # plain hop entering escape from an adaptive VC: class 0
        assert policy.escape_output_vc(1, 0, 2, 0, 4) == 2
        # wraparound edge promotes to class 1 (top VC)
        assert policy.escape_output_vc(3, 2, 0, 2, 4) == 3
        # already promoted, same dimension: stays class 1
        assert policy.escape_output_vc(0, 3, 1, 3, 4) == 3
        # dimension change on the escape net resets to class 0
        assert policy.escape_output_vc((0, 1), (3, 1), (0, 2), 3, 4) == 2

    def test_injection_maps_priority_into_adaptive_class(self):
        policy = EscapeVcPolicy()
        low = request(1, 0, priority=0)
        high = request(1, 0, priority=5)
        assert policy.injection_vc(low, 5) == 0
        assert policy.injection_vc(high, 5) == 2  # clamped to adaptive VCs

    def test_factory(self):
        assert isinstance(make_vc_policy("escape"), EscapeVcPolicy)


# ---------------------------------------------------------------------- #
# the headline: escape VCs make minimal-adaptive routing deadlock-free
# ---------------------------------------------------------------------- #
class TestEscapeDeadlockFreedom:
    """Adversarial workload with a cyclic channel dependency on every
    adaptive VC: two long packets per ring router, each two hops along
    the unique minimal direction, injected in the same cycle.  Pure
    minimal-adaptive (no escape class) freezes; the escape subnetwork
    (DOR + dateline pair) drains it (ISSUE 4 acceptance)."""

    def _topology(self, shape):
        if shape == "ring":
            return topo.ring(6, endpoints=12)
        # torus with the adversarial ring as row 0, two endpoints per
        # row-0 router — Y links exist but are never minimal for this
        # traffic, so the cycle lives in the X ring exactly as on ring6.
        t = topo.torus(6, 3)
        return topo.Topology(
            t.links, {ep: (ep % 6, 0) for ep in range(12)}, name="torus6x3row"
        )

    def _build(self, shape, vcs, policy):
        sim = Simulator()
        net = Network(
            sim,
            self._topology(shape),
            routing="adaptive",
            buffer_capacity=2,
            vcs=vcs,
            vc_policy=policy,
            endpoint_queue_capacity=2,
        )
        return sim, net

    def _inject_cycle_of_waits(self, net):
        # Both endpoints of every ring router send a long packet two hops
        # clockwise at once.  Each packet holds an output VC on its first
        # link while waiting for one on the next, and with one packet per
        # adaptive VC per link the waits close a cycle around the ring.
        for ep in range(12):
            dest = (ep % 6 + 2) % 6
            net.inject(
                ep,
                request(dest, ep, opcode=Opcode.STORE, beats=16,
                        payload=[0] * 16, txn_id=ep),
            )

    @pytest.mark.parametrize("shape", ["ring", "torus"])
    def test_pure_adaptive_freezes(self, shape):
        sim, net = self._build(shape, 2, EscapeVcPolicy(escape=False))
        self._inject_cycle_of_waits(net)
        with pytest.raises(SimulationError):
            pump_all(sim, net, range(6), 12, max_cycles=4000)
        # True deadlock, not slowness: no flit moves ever again.
        frozen = net.total_flits_forwarded()
        sim.run(300)
        assert net.total_flits_forwarded() == frozen

    @pytest.mark.parametrize("shape", ["ring", "torus"])
    def test_escape_vcs_complete(self, shape):
        sim, net = self._build(shape, 3, "escape")
        self._inject_cycle_of_waits(net)
        got = pump_all(sim, net, range(6), 12, max_cycles=30_000)
        assert sorted(p.txn_id for p in got) == list(range(12))
        # The escape subnetwork did real work, not just the adaptive VCs.
        assert sum(r.packets_escape for r in net.routers.values()) > 0
        sim.run(50)
        assert net.idle()
        assert sim.active_count == 0  # wake protocol: adaptive fabric retires

    def test_all_pairs_torus(self):
        sim = Simulator()
        t = topo.torus(4, 4)
        net = Network(sim, t, routing="adaptive", vcs=3, buffer_capacity=4)
        eps = t.endpoints
        pairs = [(s, d) for s in eps for d in eps if s != d]
        received = []

        def pump():
            while pairs and net.can_inject(pairs[0][0]):
                src, dst = pairs.pop(0)
                net.inject(src, request(dst, src, opcode=Opcode.STORE,
                                        beats=8, payload=[0] * 8,
                                        txn_id=src * 100 + dst))
            for ep in eps:
                queue = net.ejected(ep)
                while queue:
                    received.append(queue.pop())
            return not pairs and len(received) >= 240
        sim.run_until(pump, max_cycles=120_000)
        assert len(received) == 240
        sim.run(50)
        assert net.idle() and sim.active_count == 0


# ---------------------------------------------------------------------- #
# congestion-aware selection
# ---------------------------------------------------------------------- #
class TestCongestionAwareSelection:
    def _run_stream(self, routing, vcs, policy):
        sim = Simulator()
        t = topo.torus(4, 4)
        net = Network(sim, t, routing=routing, vcs=vcs, vc_policy=policy,
                      buffer_capacity=2)
        source = net.routers[(0, 0)]
        sent = 0
        received = []

        def pump():
            nonlocal sent
            # endpoint 0 at (0, 0) streams to endpoint 10 at (2, 2)
            if sent < 12 and net.can_inject(0):
                net.inject(0, request(10, 0, opcode=Opcode.STORE, beats=8,
                                      payload=[0] * 8, txn_id=sent))
                sent += 1
            queue = net.ejected(10)
            while queue:
                received.append(queue.pop())
            return len(received) >= 12
        sim.run_until(pump, max_cycles=30_000)
        used = [port for port, busy in source.output_busy_cycles.items()
                if busy and port.startswith("to:")]
        return received, used

    def test_adaptive_spreads_over_minimal_outputs(self):
        received, used = self._run_stream("adaptive", 3, "escape")
        assert len(used) >= 2  # congestion pushed traffic onto siblings

    def test_dor_keeps_one_path(self):
        received, used = self._run_stream("dor", 2, "dateline")
        assert len(used) == 1

    def test_adaptive_preserves_pair_fifo(self):
        """Route choice is per packet, yet same-pair packets are
        delivered in injection order: the resequencing stage restores
        the fabric contract the transaction layer is built on."""
        received, _used = self._run_stream("adaptive", 3, "escape")
        assert [p.txn_id for p in received] == list(range(12))


# ---------------------------------------------------------------------- #
# resequencing unit behaviour
# ---------------------------------------------------------------------- #
class TestResequencing:
    def test_out_of_order_arrival_parks_and_releases(self):
        sim = Simulator()
        flit_queues = [sim.new_queue(f"fl{v}", capacity=8) for v in range(2)]
        pkts = sim.new_queue("pkts", capacity=4)
        eport = EjectionPort("ej", 0, flit_queues, pkts, resequence=True)
        sim.add(eport)
        pk = Packetizer(128)
        late = request(0, 5, txn_id=1)
        late.fabric_seq = 1
        early = request(0, 5, txn_id=0)
        early.fabric_seq = 0
        for flit in pk.segment(late, vc=0):
            flit_queues[0].push(flit)
        sim.run(3)
        # seq 1 arrived first: parked, nothing delivered yet
        assert eport.reorder_occupancy == 1
        assert not pkts
        for flit in pk.segment(early, vc=1):
            flit_queues[1].push(flit)
        sim.run(4)
        assert [p.txn_id for p in pkts.drain()] == [0, 1]
        assert eport.packets_resequenced == 1
        assert eport.reorder_occupancy == 0
        assert eport.reorder_high_watermark == 2
        sim.run(10)
        assert eport.next_event_cycle(sim.cycle) is None

    def test_deterministic_planes_have_no_sequence(self):
        sim = Simulator()
        net = Network(sim, topo.ring(4), routing="dor", vcs=2,
                      vc_policy="dateline")
        net.inject(0, request(2, 0, txn_id=7))
        got = pump_all(sim, net, [2], 1, max_cycles=2000)
        assert got[0].fabric_seq == -1  # never stamped
        assert all(
            eport.reorder_occupancy == 0
            for eport in net.ejection_ports.values()
        )


# ---------------------------------------------------------------------- #
# configuration validation
# ---------------------------------------------------------------------- #
class TestAdaptiveValidation:
    def test_needs_three_vcs_with_escape(self):
        with pytest.raises(ValueError):
            Network(Simulator(), topo.ring(4), routing="adaptive", vcs=2)

    def test_rejects_foreign_policy(self):
        with pytest.raises(ValueError):
            Network(Simulator(), topo.ring(4), routing="adaptive", vcs=3,
                    vc_policy="dateline")

    def test_defaults_to_escape_policy(self):
        net = Network(Simulator(), topo.ring(4), routing="adaptive", vcs=3)
        assert isinstance(net.vc_policy, EscapeVcPolicy)

    def test_locks_still_enforced_on_adaptive_fabric(self):
        sim = Simulator()
        net = Network(sim, topo.single_router(3), routing="adaptive", vcs=3)
        net.inject(0, request(2, 0, opcode=Opcode.LOCK, txn_id=1))
        got = pump_all(sim, net, [2], 1, max_cycles=500)
        assert got[0].txn_id == 1
        net.inject(1, request(2, 1, txn_id=2))
        sim.run(50)
        assert not net.ejected(2)
        assert net.total_lock_stall_cycles() > 0
        net.inject(0, request(2, 0, opcode=Opcode.UNLOCK, txn_id=3))
        got = pump_all(sim, net, [2], 2, max_cycles=500)
        assert sorted(p.txn_id for p in got) == [2, 3]

    def test_lock_packets_ride_the_escape_network(self):
        """LOCK and its paired UNLOCK must traverse the same ports, so
        lock-family packets route escape-only even on adaptive VCs."""
        sim = Simulator()
        t = topo.torus(4, 4)
        net = Network(sim, t, routing="adaptive", vcs=3)
        net.inject(0, request(10, 0, opcode=Opcode.LOCK, txn_id=1))
        pump_all(sim, net, [10], 1, max_cycles=2000)
        net.inject(0, request(10, 0, opcode=Opcode.UNLOCK, txn_id=2))
        pump_all(sim, net, [10], 1, max_cycles=2000)
        sim.run(50)
        # every router is unlocked again: set and clear paired per port
        assert all(not r.locked_outputs() for r in net.routers.values())
        assert net.idle()


# ---------------------------------------------------------------------- #
# lock critical sections on a full adaptive SoC
# ---------------------------------------------------------------------- #
class TestAdaptiveLockSoc:
    def test_bystander_cannot_wedge_the_critical_section(self):
        """Regression: adaptive multi-path arrival can land a bystander's
        request in the target's delivery queue around the LOCK; blocking
        it at the queue *head* used to head-of-line block the holder's
        own traffic — including the UNLOCK — and wedge the SoC.  The
        target NIU now parks lock-blocked requests aside (per-source
        FIFO preserved), so the critical section always completes."""
        import itertools

        import repro.core.transaction as txn_mod
        import repro.transport.flit as flit_mod

        txn_mod._txn_ids = itertools.count()
        flit_mod._flit_packet_ids = itertools.count()
        builder = SocBuilder(
            topology=topo.torus(3, 3, endpoints=6),
            routing="adaptive",
            vcs=4,
        )
        for i in range(3):
            builder.add_initiator(InitiatorSpec(
                f"ip{i}", "AXI",
                random_workload(f"ip{i}", [(0, 0x1000), (0x1000, 0x1000)],
                                count=25, seed=i, tags=4, rate=0.6),
                protocol_kwargs={"id_count": 4},
            ))
        builder.add_initiator(InitiatorSpec(
            "sync", "AHB",
            sync_workload("sync", "lock", sema_addr=0x0, work_addr=0x200,
                          iterations=2, seed=9),
        ))
        builder.add_target(TargetSpec("m0", size=0x1000))
        builder.add_target(TargetSpec("m1", size=0x1000))
        soc = builder.build()
        soc.run_to_completion(max_cycles=400_000)
        assert all(m.finished() for m in soc.masters.values())
        assert soc.ordering_violations() == 0
        # the parked list engaged and drained
        assert all(t.outstanding == 0 for t in soc.target_nius.values())
        soc.run(16)
        assert soc.sim.active_count == 0


# ---------------------------------------------------------------------- #
# adaptive vs DOR + dateline on a hotspot SoC
# ---------------------------------------------------------------------- #
def hotspot_soc(routing):
    """4x4 torus: six masters hammer one slow target ("hot", long
    latencies and a one-deep outstanding window, so its backpressure
    tree reaches deep into the fabric); six more stream to three fast
    background targets whose DOR paths share links with that tree."""
    reset_ids()
    hot_range = [(0, 0x2000)]
    bg_ranges = [(0x2000, 0x2000), (0x4000, 0x2000), (0x6000, 0x2000)]
    if routing == "adaptive":
        fabric = dict(routing="adaptive", vcs=3, vc_policy="escape")
    else:
        fabric = dict(routing="dor", vcs=2, vc_policy="dateline")
    builder = SocBuilder(topology=topo.torus(4, 4, endpoints=16), **fabric)
    for index in range(12):
        hot = index % 2 == 0
        builder.add_initiator(InitiatorSpec(
            f"ip{index}", "AXI",
            random_workload(f"ip{index}", hot_range if hot else bg_ranges,
                            count=100_000, seed=20 + index,
                            rate=0.9 if hot else 0.7, tags=4,
                            burst_beats=(4, 8)),
            protocol_kwargs={"id_count": 4},
        ))
    builder.add_target(TargetSpec("hot", size=0x2000, read_latency=14,
                                  write_latency=7, max_outstanding=1))
    for name in ("bg0", "bg1", "bg2"):
        builder.add_target(TargetSpec(name, size=0x2000, read_latency=2,
                                      write_latency=1))
    return builder.build()


class TestAdaptiveHotspotSoc:
    def test_adaptive_carries_more_flits_than_dor(self):
        """Identical traffic, same 1,500-cycle window: under adaptive
        routing the background flows route around the congested quadrant
        and the hotspot flows spread over their minimal quadrants.  The
        counts are simulated, so the comparison is exact."""
        flits = {}
        for routing in ("adaptive", "dor"):
            soc = hotspot_soc(routing)
            soc.run(1_500)
            assert soc.ordering_violations() == 0
            flits[routing] = soc.fabric.total_flits_forwarded()
        assert flits["adaptive"] > flits["dor"]


# ---------------------------------------------------------------------- #
# the one-cycle lock-admission window (ROADMAP open item, now pinned)
# ---------------------------------------------------------------------- #
class TestLockAdmissionWindow:
    """Lock admission is decided at VC allocation, which reads the lock
    state *before* the same cycle's transfers: a head VC-allocated in the
    very cycle a LOCK tail passes is treated as having entered the locked
    path first.  The window is one cycle wide and deterministic — this
    test pins the winner."""

    def _flits(self, packet, vc):
        return Packetizer(128).segment(packet, vc=vc)

    def test_allocation_in_lock_set_cycle_is_admitted(self):
        sim = Simulator()
        table = {0: "local:0", 1: "local:1", 2: "local:2"}
        router = Router("r", 0, table, vcs=2, buffer_capacity=4)
        in_a = sim.new_queue("inA", capacity=8)
        in_b = sim.new_queue("inB", capacity=8)
        router.add_input("in:a", in_a, vc=0)
        router.add_input("in:b", in_b, vc=1)
        out = [
            router.add_output("local:2", sim.new_queue(f"out{vc}", capacity=8),
                              vc=vc)
            for vc in range(2)
        ]
        sim.add(router)

        # Locker: single-flit LOCK from master 0 (head = tail), priority 1
        # so it wins switch allocation in the contested cycle.  Victim: a
        # single-flit request from master 1 committed in the same cycle,
        # so both heads VC-allocate in the same Phase V — before the LOCK
        # tail's Phase B transfer sets the lock.
        locker = request(2, 0, opcode=Opcode.LOCK, priority=1, txn_id=1)
        victim = request(2, 1, txn_id=2)
        for flit in self._flits(locker, 0):
            in_a.push(flit)
        for flit in self._flits(victim, 1):
            in_b.push(flit)
        sim.run(1)  # both heads visible
        sim.run(1)  # both allocate in Phase V; the LOCK tail transfers in
        #             Phase B of the same cycle -> lock set *after* grant
        assert router.locked_outputs() == {"local:2": 0}
        # The window: the victim owns its output VC despite the lock.
        assert router._input_alloc[("in:b", 1)] == ("local:2", 1)
        sim.run(2)
        # ...and its flit passed the locked port (entered "first").
        assert [f.src for f in out[1]] == [1]
        assert router.lock_stalls_by_output["local:2"] == 0

        # A later head from a non-holder is refused at allocation.
        late = request(2, 1, txn_id=3)
        for flit in self._flits(late, 1):
            in_b.push(flit)
        sim.run(10)
        assert router._input_alloc[("in:b", 1)] is None
        assert router.lock_stalls_by_output["local:2"] > 0
        assert len(in_b) == 1  # still parked at the input

        # UNLOCK from the holder releases it.
        unlock = request(2, 0, opcode=Opcode.UNLOCK, beats=1, payload=[0],
                         priority=1, txn_id=4)
        for flit in self._flits(unlock, 0):
            in_a.push(flit)
        sim.run(10)
        assert router.locked_outputs() == {}
        assert not in_b  # the refused head finally went through
