"""Virtual channels: deadlock freedom, QoS isolation, VC links, wiring.

The transport layer's VC machinery (PR 3): per-input-per-VC buffers with
a VC-allocation stage in the router, per-VC link wiring through the
LinkSpec machinery (``VcPhysicalLink`` time-multiplexing VCs over one
physical channel with per-VC credits) and the dateline VC policy that
makes ring/torus wormhole fabrics deadlock-free with 2 VCs.
"""

import pytest

from differential import link_in_flight
from repro.core.packet import NocPacket, PacketKind
from repro.core.transaction import Opcode
from repro.phys.link import LinkSpec, VcPhysicalLink
from repro.sim.kernel import SimulationError, Simulator
from repro.transport import topology as topo
from repro.transport.flit import Flit
from repro.transport.network import BufferSizingError, Fabric, Network
from repro.transport.routing import (
    DatelineVcPolicy,
    RoutingError,
    VcPolicy,
    compute_tables,
    make_vc_policy,
)
from repro.transport.switching import SwitchingMode


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
# the headline: dateline VCs make wraparound wormhole deadlock-free
# ---------------------------------------------------------------------- #
class TestDatelineDeadlockFreedom:
    """Seeded ring workload that deadlocks under single-VC wormhole and
    completes with 2 VCs + the dateline policy (ISSUE 3 acceptance)."""

    def _build_ring(self, vcs, policy):
        sim = Simulator()
        net = Network(
            sim,
            topo.ring(4),
            routing="dor",
            buffer_capacity=2,
            vcs=vcs,
            vc_policy=policy,
            endpoint_queue_capacity=2,
        )
        return sim, net

    def _inject_cycle_of_waits(self, net):
        # Every endpoint sends a long packet two hops clockwise at once:
        # each packet holds its first link while waiting for the next,
        # and the four waits close a cycle around the ring.
        for src in range(4):
            net.inject(
                src,
                request((src + 2) % 4, src, opcode=Opcode.STORE, beats=16,
                        payload=[0] * 16, txn_id=src),
            )

    def test_single_vc_wormhole_deadlocks(self):
        sim, net = self._build_ring(1, None)
        self._inject_cycle_of_waits(net)
        with pytest.raises(SimulationError):
            pump_all(sim, net, range(4), 4, max_cycles=3000)
        # True deadlock, not slowness: no flit moves ever again.
        frozen = net.total_flits_forwarded()
        sim.run(300)
        assert net.total_flits_forwarded() == frozen

    def test_two_vcs_dateline_completes(self):
        sim, net = self._build_ring(2, "dateline")
        self._inject_cycle_of_waits(net)
        got = pump_all(sim, net, range(4), 4, max_cycles=3000)
        assert sorted(p.txn_id for p in got) == [0, 1, 2, 3]
        sim.run(20)
        assert net.idle()
        assert sim.active_count == 0  # wake protocol: VC fabric retires

    def test_torus_all_pairs_dor_dateline(self):
        sim = Simulator()
        t = topo.torus(4, 4)
        net = Network(sim, t, routing="dor", vcs=2, vc_policy="dateline",
                      buffer_capacity=4)
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

    def test_dor_rejects_topology_without_wraparound(self):
        with pytest.raises(RoutingError):
            compute_tables(topo.mesh(4, 4), "dor")


class TestDatelinePolicyUnit:
    def test_ring_hops(self):
        policy = DatelineVcPolicy()
        # plain hop keeps class; wraparound edge promotes to VC 1
        assert policy.output_vc(1, 0, 2, 0, 2) == 0
        assert policy.output_vc(3, 2, 0, 0, 2) == 1  # dateline 3 -> 0
        assert policy.output_vc(0, 3, 1, 1, 2) == 1  # stays promoted
        assert policy.output_vc(0, None, 1, 0, 2) == 0  # injection hop

    def test_torus_dimension_change_resets_class(self):
        policy = DatelineVcPolicy()
        # X wraparound promotes...
        assert policy.output_vc((3, 1), (2, 1), (0, 1), 0, 2) == 1
        # ...but turning into Y starts that dimension's ring on VC 0.
        assert policy.output_vc((0, 1), (3, 1), (0, 2), 1, 2) == 0
        # Y wraparound promotes again.
        assert policy.output_vc((0, 3), (0, 2), (0, 0), 0, 2) == 1

    def test_ejection_keeps_class(self):
        policy = DatelineVcPolicy()
        assert policy.output_vc(2, 1, None, 1, 2) == 1

    def test_needs_two_vcs(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, topo.ring(4), routing="dor", vcs=1,
                    vc_policy="dateline")

    def test_factory(self):
        assert isinstance(make_vc_policy(None), VcPolicy)
        assert isinstance(make_vc_policy("dateline"), DatelineVcPolicy)
        policy = DatelineVcPolicy()
        assert make_vc_policy(policy) is policy
        with pytest.raises(KeyError):
            make_vc_policy("nope")


# ---------------------------------------------------------------------- #
# QoS isolation: per-VC buffers defeat head-of-line blocking
# ---------------------------------------------------------------------- #
class _PriorityClassVcs(VcPolicy):
    """Priority ``p`` rides VC ``min(p, vcs - 1)`` end to end.  No
    workload selects such a policy, so the library ships none; the plane
    takes any ``VcPolicy`` instance, and this one is enough to show that
    per-VC buffers, not the policy, defeat head-of-line blocking."""

    def injection_vc(self, packet, vcs):
        return min(packet.priority, vcs - 1)


class TestQosIsolation:
    def _hol_scenario(self, vcs, policy):
        """Two flows share the single channel between two routers:
        best-effort traffic from endpoint 0 towards a destination that
        never drains, and one high-priority packet from endpoint 1 to a
        live destination.  With one VC the wedged best-effort packet
        owns the shared channel (wormhole) and the urgent packet stalls
        behind it; with priority-mapped VCs it rides its own buffer
        through the same ports and overtakes."""
        sim = Simulator()
        topology = topo.Topology([(0, 1)], {0: 0, 1: 0, 2: 1, 3: 1},
                                 name="two-routers")
        net = Network(sim, topology, vcs=vcs, vc_policy=policy,
                      buffer_capacity=2, endpoint_queue_capacity=2)
        for i in range(4):  # clog the path to endpoint 2 (never popped)
            sim.run_until(lambda: net.can_inject(0), max_cycles=2000)
            net.inject(0, request(2, 0, opcode=Opcode.STORE, beats=32,
                                  payload=[0] * 32, priority=0, txn_id=i))
        sim.run(100)  # wedge the shared router->router channel
        net.inject(1, request(3, 1, priority=1, txn_id=99))
        sim.run(300)
        ejected = net.ejected(3)
        return [ejected.pop().txn_id for _ in range(len(ejected))]

    def test_single_vc_head_of_line_blocks(self):
        assert self._hol_scenario(1, None) == []

    def test_priority_vc_overtakes(self):
        assert self._hol_scenario(2, _PriorityClassVcs()) == [99]


# ---------------------------------------------------------------------- #
# VC-multiplexed physical links
# ---------------------------------------------------------------------- #
class TestVcPhysicalLink:
    def _make_link(self, sim, vcs=2, capacity=2, **kwargs):
        ups = [sim.new_queue(f"up{v}", capacity=4) for v in range(vcs)]
        downs = [sim.new_queue(f"down{v}", capacity=capacity) for v in range(vcs)]
        link = VcPhysicalLink("lnk", ups, downs, flit_bits=96, phit_bits=48,
                              **kwargs)
        sim.add(link)
        return ups, downs, link

    @staticmethod
    def _flit(vc, seq=0, count=1):
        return Flit(packet_id=vc * 100 + seq, seq=seq, count=count, dest=0,
                    src=0, priority=0, lock_related=False, vc=vc)

    def test_blocked_vc_does_not_block_the_other(self):
        sim = Simulator()
        ups, downs, link = self._make_link(sim, capacity=2)
        # Nothing ever pops down0: VC 0 exhausts its 2 credits and stalls.
        for i in range(4):
            ups[0].push(self._flit(0, seq=i, count=4))
        for i in range(4):
            ups[1].push(self._flit(1, seq=i, count=4))
        arrived_vc1 = 0
        for _ in range(30):  # drain VC 1 as a live consumer would
            sim.run(2)
            while downs[1]:
                downs[1].pop()
                arrived_vc1 += 1
        assert arrived_vc1 == 4  # VC 1 flowed past the stalled VC 0
        assert len(downs[0]) == 2  # capacity reached, wires released
        assert len(ups[0]) == 2  # rest still staged upstream
        assert link._credits[0] == link._returning[0] == 0  # both held downstream

    def test_credits_return_when_consumer_drains(self):
        sim = Simulator()
        ups, downs, link = self._make_link(sim, capacity=2)
        for i in range(4):
            ups[0].push(self._flit(0, seq=i, count=4))
        sim.run(60)
        assert len(downs[0]) == 2
        while downs[0]:
            downs[0].pop()
        sim.run(60)
        assert len(downs[0]) == 2  # the remaining two flits came through
        while downs[0]:
            downs[0].pop()
        sim.run(20)
        assert link._credits == link._capacities and link._returning == [0, 0]
        assert link.next_event_cycle(sim.cycle) is None and not link_in_flight(link)
        assert downs[0].total_pushed == 4 and link.phits_carried == 8

    def test_serialized_vc_ring_delivers_and_drains(self):
        sim = Simulator()
        net = Network(sim, topo.ring(4), routing="dor", vcs=2,
                      vc_policy="dateline",
                      link_spec=LinkSpec(phit_bits=48, pipeline_latency=1),
                      endpoint_link_spec=LinkSpec(phit_bits=96))
        for src in range(4):
            net.inject(src, request((src + 2) % 4, src, opcode=Opcode.STORE,
                                    beats=16, payload=[0] * 16, txn_id=src))
        got = pump_all(sim, net, range(4), 4, max_cycles=20_000)
        assert sorted(p.txn_id for p in got) == [0, 1, 2, 3]
        assert all(isinstance(link, VcPhysicalLink) for link in net.links)
        assert sum(link.phits_carried for link in net.links) > 0
        for link in net.links:  # every credit usable, returning or held
            for vc in range(link.vcs):
                assert link._credits[vc] + link._returning[vc] + (
                    link._in_flight_vc[vc] + link.downstreams[vc]._occ
                ) <= link._capacities[vc]
        sim.run(50)
        assert net.idle()
        assert all(link._credits == link._capacities for link in net.links)
        assert sim.active_count == 0

    def test_unbounded_delivery_queue_rejected(self):
        sim = Simulator()
        up = sim.new_queue("u", capacity=4)
        down = sim.new_queue("d", capacity=None)
        with pytest.raises(ValueError):
            VcPhysicalLink("bad", [up], [down])


# ---------------------------------------------------------------------- #
# vcs=1 stays the historical fabric
# ---------------------------------------------------------------------- #
class TestSingleVcCompatibility:
    def test_default_build_keeps_queue_names(self):
        """vcs=1 (the default) must wire the exact same queues as the
        pre-VC fabric: historical names, no .vc suffixes anywhere."""
        sim = Simulator()
        Fabric(sim, topo.mesh(2, 2))
        names = set(sim._queue_names)
        assert "noc.req.link.(0, 0)->(0, 1)" in names
        assert "noc.req.inj.0.pkts" in names
        assert "noc.req.ej.0.pkts" in names
        assert not any(".vc" in name for name in names)

    def test_vc_build_adds_per_vc_queues(self):
        sim = Simulator()
        Fabric(sim, topo.mesh(2, 2), vcs=2)
        names = set(sim._queue_names)
        assert "noc.req.link.(0, 0)->(0, 1)" in names  # VC 0 keeps the name
        assert "noc.req.link.(0, 0)->(0, 1).vc1" in names

    def test_router_port_order_is_canonical_on_wide_fabrics(self):
        """The router's own port iteration (and hence first-contest
        arbitration order) uses the canonical router key, not the port
        name string: 'in:(1, 9)' must come before 'in:(1, 11)' even
        though the strings sort the other way."""
        sim = Simulator()
        net = Network(sim, topo.mesh(2, 12))
        router = net.routers[(1, 10)]
        in_ports = [inp.port for inp in router._sorted_inputs]
        assert in_ports.index("in:(1, 9)") < in_ports.index("in:(1, 11)")
        assert in_ports.index("in:(0, 10)") < in_ports.index("in:(1, 9)")

    def test_all_topologies_still_deliver_with_vcs(self):
        for topology in (topo.mesh(3, 3), topo.ring(4), topo.single_router(4)):
            sim = Simulator()
            net = Network(sim, topology, vcs=2)
            net.inject(0, request(2, 0, txn_id=7))
            got = pump_all(sim, net, [2], 1, max_cycles=2000)
            assert got[0].txn_id == 7


# ---------------------------------------------------------------------- #
# build-time buffer sizing validation (satellite)
# ---------------------------------------------------------------------- #
class TestBufferSizingValidation:
    def test_undersized_link_staging_rejected_at_build(self):
        """A SAF plane whose link staging is shallower than the router
        buffers used to wedge silently mid-run; now it fails to build."""
        sim = Simulator()
        with pytest.raises(BufferSizingError) as err:
            Network(sim, topo.mesh(2, 2),
                    mode=SwitchingMode.STORE_AND_FORWARD,
                    buffer_capacity=16,
                    link_spec=LinkSpec(phit_bits=48, capacity=2))
        message = str(err.value)
        assert "min_buffer_for" in message and "16" in message

    def test_wormhole_tolerates_shallow_links(self):
        sim = Simulator()
        Network(sim, topo.mesh(2, 2), mode=SwitchingMode.WORMHOLE,
                buffer_capacity=16, link_spec=LinkSpec(phit_bits=48, capacity=2))

    def test_domain_crossing_endpoint_links_validated(self):
        """A transparent-looking endpoint spec (no phits, no pipeline)
        still becomes a capacity-limited physical link when the endpoint
        sits in another clock domain — validation must judge it the way
        the wiring will, or the under-sized CDC link wedges silently."""
        from repro.phys.clocking import ClockDomain

        sim = Simulator()
        with pytest.raises(BufferSizingError):
            Network(sim, topo.mesh(2, 2),
                    mode=SwitchingMode.STORE_AND_FORWARD,
                    buffer_capacity=8,
                    endpoint_link_spec=LinkSpec(capacity=1),
                    endpoint_domains={0: ClockDomain("cpu", 1)})
        # Same spec with no crossing is wired as a shared queue of
        # buffer_capacity depth: fine.
        Network(Simulator(), topo.mesh(2, 2),
                mode=SwitchingMode.STORE_AND_FORWARD,
                buffer_capacity=8,
                endpoint_link_spec=LinkSpec(capacity=1))

    def test_oversize_packet_raises_named_error(self):
        sim = Simulator()
        net = Network(sim, topo.mesh(2, 2),
                      mode=SwitchingMode.STORE_AND_FORWARD, buffer_capacity=4)
        with pytest.raises(BufferSizingError) as err:
            net.inject(0, request(3, 0, opcode=Opcode.STORE, beats=32,
                                  payload=[0] * 32))
        assert "min_buffer_for" in str(err.value)


# ---------------------------------------------------------------------- #
# lock-stall accounting (satellite regression)
# ---------------------------------------------------------------------- #
class TestLockStallCounting:
    def test_two_stalled_outputs_count_one_cycle(self):
        """Two lock-stalled outputs in the same cycle used to report two
        "stall cycles"; the counter is per cycle, so a run of N cycles
        reads at most N however many outputs stall in each."""
        sim = Simulator()
        net = Network(sim, topo.single_router(4))
        router = next(iter(net.routers.values()))
        # Master 0 locks the paths to endpoints 2 and 3.
        net.inject(0, request(2, 0, opcode=Opcode.READEX, txn_id=1))
        net.inject(0, request(3, 0, opcode=Opcode.READEX, txn_id=2))
        pump_all(sim, net, [2, 3], 2, max_cycles=500)
        assert set(router.locked_outputs()) == {"local:2", "local:3"}
        # Two other masters stall on the two locked ports simultaneously.
        net.inject(1, request(2, 1, txn_id=3))
        net.inject(2, request(3, 2, txn_id=4))
        sim.run(50)
        assert not net.ejected(2) and not net.ejected(3)  # both refused
        # Both ports stall in the same cycles -> counted once per cycle.
        assert 25 < router.lock_stall_cycles <= 50
        assert net.total_lock_stall_cycles() == router.lock_stall_cycles

    def test_locks_still_enforced_with_vcs(self):
        sim = Simulator()
        net = Network(sim, topo.single_router(3), vcs=2)
        net.inject(0, request(2, 0, opcode=Opcode.READEX, txn_id=1))
        got = pump_all(sim, net, [2], 1, max_cycles=500)
        assert got[0].txn_id == 1
        net.inject(1, request(2, 1, txn_id=2))
        sim.run(50)
        assert not net.ejected(2)
        assert net.total_lock_stall_cycles() > 0
        net.inject(0, request(2, 0, opcode=Opcode.STORE_COND_LOCKED,
                              payload=[0], txn_id=3))
        got = pump_all(sim, net, [2], 2, max_cycles=500)
        assert sorted(p.txn_id for p in got) == [2, 3]
