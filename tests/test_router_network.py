"""Router and network integration tests (transport layer behaviour)."""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.packet import NocPacket, PacketKind
from repro.core.transaction import Opcode
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.transport import topology as topo
from repro.transport.flit import Packetizer
from repro.transport.network import Fabric, Network
from repro.transport.qos import PriorityArbiter
from repro.transport.router import Router
from repro.transport.routing import (
    DatelineVcPolicy,
    EscapeVcPolicy,
    compute_adaptive_tables,
    compute_tables,
    port_local,
    port_to,
)
from repro.transport.switching import SwitchingMode


def request(slv, mst, opcode=Opcode.LOAD, beats=1, priority=0, txn_id=-1, payload=None):
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


def drain(net, endpoint, sim, count, max_cycles=5000):
    got = []
    def pump():
        q = net.ejected(endpoint)
        while q:
            got.append(q.pop())
        return len(got) >= count
    sim.run_until(pump, max_cycles=max_cycles)
    return got


class TestDelivery:
    @pytest.mark.parametrize("mode", list(SwitchingMode))
    def test_point_to_point(self, mode):
        sim = Simulator()
        net = Network(sim, topo.mesh(3, 3), mode=mode, buffer_capacity=16)
        net.inject(0, request(8, 0, txn_id=1))
        got = drain(net, 8, sim, 1)
        assert got[0].txn_id == 1

    @pytest.mark.parametrize(
        "topology",
        [topo.ring(4), topo.star(4, endpoints=4), topo.single_router(4),
         topo.tree(2, 2, endpoints=4), topo.torus(3, 3)],
        ids=lambda t: t.name,
    )
    def test_all_pairs_all_topologies(self, topology):
        sim = Simulator()
        net = Network(sim, topology)
        eps = topology.endpoints
        expected = 0
        for src in eps:
            for dst in eps:
                if src == dst:
                    continue
                sim.run_until(lambda: net.can_inject(src), max_cycles=1000)
                net.inject(src, request(dst, src, txn_id=src * 100 + dst))
                expected += 1
        received = []
        def pump():
            for ep in eps:
                q = net.ejected(ep)
                while q:
                    received.append(q.pop())
            return len(received) >= expected
        sim.run_until(pump, max_cycles=20_000)
        assert len(received) == expected

    def test_same_pair_fifo_order(self):
        """Packets between one (src, dst) pair never reorder — the
        guarantee NIU response matching relies on."""
        sim = Simulator()
        net = Network(sim, topo.mesh(3, 3))
        sent = 0
        received = []
        def pump():
            nonlocal sent
            if sent < 20 and net.can_inject(0):
                net.inject(0, request(8, 0, txn_id=sent))
                sent += 1
            q = net.ejected(8)
            while q:
                received.append(q.pop().txn_id)
            return len(received) >= 20
        sim.run_until(pump, max_cycles=10_000)
        assert received == list(range(20))

    def test_multi_flit_payload_survives(self):
        sim = Simulator()
        net = Network(sim, topo.mesh(2, 2))
        payload = list(range(16))
        net.inject(
            0, request(3, 0, opcode=Opcode.STORE, beats=16, payload=payload)
        )
        got = drain(net, 3, sim, 1)
        assert got[0].payload == payload

    def test_xy_routing_delivers(self):
        sim = Simulator()
        net = Network(sim, topo.mesh(3, 3), routing="xy")
        net.inject(0, request(8, 0, txn_id=5))
        got = drain(net, 8, sim, 1)
        assert got[0].txn_id == 5


class TestSwitchingModeBehaviour:
    def _latency(self, mode, beats):
        sim = Simulator()
        net = Network(
            sim, topo.mesh(3, 3), mode=mode, buffer_capacity=32
        )
        net.inject(
            0,
            request(8, 0, opcode=Opcode.STORE, beats=beats,
                    payload=[0] * beats),
        )
        drain(net, 8, sim, 1)
        return sim.cycle

    def test_saf_slower_than_wormhole_for_long_packets(self):
        wormhole = self._latency(SwitchingMode.WORMHOLE, 16)
        saf = self._latency(SwitchingMode.STORE_AND_FORWARD, 16)
        assert saf > wormhole

    def test_vct_matches_wormhole_unloaded(self):
        wormhole = self._latency(SwitchingMode.WORMHOLE, 16)
        vct = self._latency(SwitchingMode.VIRTUAL_CUT_THROUGH, 16)
        assert vct == wormhole

    def test_saf_oversize_packet_rejected_at_injection(self):
        sim = Simulator()
        net = Network(
            sim,
            topo.mesh(2, 2),
            mode=SwitchingMode.STORE_AND_FORWARD,
            buffer_capacity=4,
        )
        with pytest.raises(ValueError):
            net.inject(
                0,
                request(3, 0, opcode=Opcode.STORE, beats=32,
                        payload=[0] * 32),
            )


class TestPriorityArbitration:
    def test_high_priority_wins_contended_output(self):
        """Two flows converge on one ejection port; the high-priority flow
        sees lower latency."""
        sim = Simulator()
        net = Network(sim, topo.mesh(3, 3), arbiter="priority")
        sent = {1: 0, 2: 0}
        done = {1: [], 2: []}
        inject_cycles = {}
        def pump():
            for src, prio in ((1, 0), (2, 2)):
                if sent[src] < 15 and net.can_inject(src):
                    pkt = request(
                        7, src, opcode=Opcode.STORE, beats=8,
                        payload=[0] * 8, priority=prio,
                        txn_id=src * 1000 + sent[src],
                    )
                    net.inject(src, pkt)
                    inject_cycles[pkt.txn_id] = sim.cycle
                    sent[src] += 1
            q = net.ejected(7)
            while q:
                pkt = q.pop()
                done[pkt.txn_id // 1000].append(
                    sim.cycle - inject_cycles[pkt.txn_id]
                )
            return len(done[1]) >= 15 and len(done[2]) >= 15
        sim.run_until(pump, max_cycles=20_000)
        def mean(xs):
            return sum(xs) / len(xs)
        assert mean(done[2]) < mean(done[1])


class TestLockHandling:
    def test_lock_blocks_other_masters_path(self):
        """After a LOCK packet passes, packets from other masters stall at
        the locked port until UNLOCK passes (paper §3)."""
        sim = Simulator()
        net = Network(sim, topo.single_router(3))
        net.inject(0, request(2, 0, opcode=Opcode.LOCK, txn_id=1))
        got = drain(net, 2, sim, 1)
        assert got[0].txn_id == 1
        # Other master's packet now stalls.
        net.inject(1, request(2, 1, txn_id=2))
        sim.run(50)
        assert not net.ejected(2)
        assert net.total_lock_stall_cycles() > 0
        # Holder's own packet passes.
        net.inject(0, request(2, 0, txn_id=3))
        got = drain(net, 2, sim, 1)
        assert got[0].txn_id == 3
        # UNLOCK releases; blocked packet now flows.
        net.inject(0, request(2, 0, opcode=Opcode.UNLOCK, txn_id=4))
        got = drain(net, 2, sim, 2)
        assert sorted(p.txn_id for p in got) == [2, 4]

    def test_lock_support_disableable(self):
        sim = Simulator()
        net = Network(sim, topo.single_router(3), lock_support=False)
        net.inject(0, request(2, 0, opcode=Opcode.LOCK, txn_id=1))
        drain(net, 2, sim, 1)
        net.inject(1, request(2, 1, txn_id=2))
        got = drain(net, 2, sim, 1)
        assert got[0].txn_id == 2  # no blocking without the service


class TestFabric:
    def test_planes_are_independent(self):
        sim = Simulator()
        fab = Fabric(sim, topo.mesh(2, 2))
        fab.inject_request(0, request(3, 0, txn_id=1))
        rsp = request(3, 0, txn_id=2).make_response(payload=None)
        fab.inject_response(3, rsp)
        def both():
            return bool(fab.requests(3)) and bool(fab.responses(0))
        sim.run_until(both, max_cycles=100)
        assert fab.requests(3).pop().txn_id == 1
        assert fab.responses(0).pop().txn_id == 2

    def test_idle_detection(self):
        sim = Simulator()
        fab = Fabric(sim, topo.mesh(2, 2))
        assert fab.idle()
        fab.inject_request(0, request(3, 0))
        assert not fab.idle()
        sim.run_until(lambda: bool(fab.requests(3)), max_cycles=100)
        fab.requests(3).pop()
        sim.run(10)
        assert fab.idle()

    def test_utilization_reporting(self):
        sim = Simulator()
        net = Network(sim, topo.mesh(2, 2))
        net.inject(0, request(3, 0))
        drain(net, 3, sim, 1)
        assert 0.0 < net.mean_link_utilization(sim.cycle) < 1.0


# ---------------------------------------------------------------------- #
# solo ticks vs the reference arbitration
# ---------------------------------------------------------------------- #
_TORUS = topo.torus(3, 3)
_CENTRE = (1, 1)
_DOR = compute_tables(_TORUS, "dor")[_CENTRE]
_ADAPTIVE = compute_adaptive_tables(_TORUS)[_CENTRE]
# Router keyword arguments per switch flavour.  Tables and policies are
# read-only, so the twins share them (as a Network's routers do).
_FLAVOURS = {
    "single-vc": dict(table=_DOR),
    "dateline": dict(table=_DOR, vcs=2, vc_policy=DatelineVcPolicy()),
    "adaptive-escape": dict(
        table=_ADAPTIVE.escape, vcs=3, vc_policy=EscapeVcPolicy(),
        adaptive_table=_ADAPTIVE,
    ),
}
_IN_PORTS = 5  # four neighbours + the injection port
_OUT_PORTS = 5  # four neighbours + the ejection port
_OPCODES = (Opcode.LOAD, Opcode.STORE, Opcode.LOCK, Opcode.UNLOCK)


def _standalone_router(flavour, capacities, trace_on, fast):
    """The centre router of a 3x3 torus, wired as Network wires it, but
    to free-standing queues the test feeds and drains itself."""
    sim = Simulator(trace=Tracer(enabled=trace_on))
    router = Router("r", _CENTRE, buffer_capacity=4, **_FLAVOURS[flavour])
    vcs = router.vcs
    router.stream_fast_path = fast  # after construction, as the SoC tests do
    (endpoint,) = _TORUS.endpoints_at(_CENTRE)
    inputs, outputs = [], []
    for neighbour in _TORUS.neighbors(_CENTRE):
        for vc in range(vcs):
            inputs.append(router.add_input(
                f"in:{neighbour}", sim.new_queue(f"i{neighbour}{vc}", 4),
                vc=vc, neighbor=neighbour,
            ))
    for vc in range(vcs):
        inputs.append(router.add_input(
            f"inj:{endpoint}", sim.new_queue(f"inj{vc}", 4), vc=vc,
            order=endpoint,
        ))
    ports = [(port_to(n), dict(neighbor=n)) for n in _TORUS.neighbors(_CENTRE)]
    ports.append((port_local(endpoint), dict(order=endpoint)))
    for port, geometry in ports:
        for vc in range(vcs):
            capacity = capacities[len(outputs) % len(capacities)]
            outputs.append(router.add_output(
                port, sim.new_queue(f"o{port}{vc}", capacity), vc=vc,
                **geometry,
            ))
    sim.add(router)
    return sim, router, inputs, outputs


@st.composite
def _router_schedules(draw, vcs):
    n_in, n_out = _IN_PORTS * vcs, _OUT_PORTS * vcs
    packets = draw(st.lists(
        st.tuples(
            st.integers(0, n_in - 1),  # input VC it arrives on
            st.integers(0, 8),  # destination endpoint
            st.sampled_from(_OPCODES),
            st.integers(1, 6),  # beats (STORE only: 1 + ceil(beats / 2) flits)
            st.integers(0, 2),  # source master
            st.integers(0, 1),  # priority
        ),
        min_size=1, max_size=14,
    ))
    # Mostly one arrival at a time (solo ticks), sometimes a burst
    # (contested ticks: both paths must hand over to each other).
    arrivals = st.one_of(
        st.just(0),
        st.integers(0, n_in - 1).map(lambda bit: 1 << bit),
        st.integers(0, (1 << n_in) - 1),
    )
    cycles = draw(st.lists(
        st.tuples(arrivals, st.integers(0, (1 << n_out) - 1)),
        min_size=10, max_size=70,
    ))
    capacities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    # Optionally one fault epoch: (down cycle, length, the packet whose
    # DOR output port dies).  The single-VC solo gate must stand down
    # while it lasts.
    fault = draw(st.none() | st.tuples(
        st.integers(0, 15), st.integers(5, 40),
        st.integers(0, len(packets) - 1),
    ))
    return packets, cycles, capacities, fault


def _drive_twins(flavour, schedule, trace_on):
    packets, cycles, capacities, fault = schedule
    vcs = _FLAVOURS[flavour].get("vcs", 1)
    epochs = {}
    if fault is not None:
        down, length, victim = fault
        dead = _DOR[packets[victim][1]]
        epochs[down] = (frozenset([dead]), True)
        epochs[down + length] = (frozenset(), False)
    twins = [
        _standalone_router(flavour, capacities, trace_on, fast)
        for fast in (True, False)
    ]
    pending = [[] for _ in range(_IN_PORTS * vcs)]
    for index, dest, opcode, beats, src, priority in packets:
        store = opcode is Opcode.STORE
        packet = request(
            dest, src, opcode=opcode, beats=beats if store else 1,
            payload=[0] * beats if store else None, priority=priority,
        )
        pending[index].extend(Packetizer(64).segment(packet, vc=index % vcs))
    feeds = [pending, copy.deepcopy(pending)]
    for cycle, (arrive, pop) in enumerate(cycles):
        for (sim, router, inputs, outputs), feed in zip(twins, feeds):
            if cycle in epochs:
                router.apply_fault_state(*epochs[cycle])
            for index, queue in enumerate(inputs):
                if arrive >> index & 1 and feed[index] and queue.can_push():
                    queue.push(feed[index].pop(0))
            for index, queue in enumerate(outputs):
                if pop >> index & 1 and queue:
                    queue.pop()
            sim.run(1)
        (_, fast, _, fast_out), (_, slow, _, slow_out) = twins
        assert fast.snapshot() == slow.snapshot(), f"cycle {cycle}"
        assert [list(q) for q in fast_out] == [list(q) for q in slow_out]
    assert twins[0][0].trace.dump() == twins[1][0].trace.dump()
    return twins[0][1], twins[1][1]


class TestSoloTickMatchesReference:
    """One busy input (VC) takes the solo branch of ``tick`` /
    ``_tick_vc``; ``stream_fast_path = False`` takes the reference
    arbitration.  Both must leave the router — arbiter grants, ages,
    owners, lock state, the allocation-failure cache, every counter —
    and its output queues equal after every cycle, whatever arrives and
    however the downstream drains."""

    @pytest.mark.parametrize("flavour", sorted(_FLAVOURS))
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_fast_equals_reference_every_cycle(self, flavour, data):
        vcs = _FLAVOURS[flavour].get("vcs", 1)
        schedule = data.draw(_router_schedules(vcs))
        _drive_twins(flavour, schedule, trace_on=False)

    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(schedule=_router_schedules(1))
    def test_traced_route_events_match(self, schedule):
        """The ``route`` event is built only when tracing is on."""
        _drive_twins("single-vc", schedule, trace_on=True)

    def test_flag_off_still_reaches_the_reference_arbiter(self, monkeypatch):
        """The oracle is real: with the flag cleared after construction
        the grant of a lone packet goes through ``Arbiter.pick``; with
        it set, no tick of that packet arbitrates at all."""
        picks = []
        real_pick = PriorityArbiter.pick

        def counting_pick(arbiter, output, candidates):
            picks.append(arbiter)
            return real_pick(arbiter, output, candidates)

        monkeypatch.setattr(PriorityArbiter, "pick", counting_pick)
        lone = ([(0, 4, Opcode.STORE, 3, 0, 0)], [(1, 1 << 4)] * 12, [2], None)
        fast, slow = _drive_twins("single-vc", lone, trace_on=False)
        assert fast.flits_forwarded == 3 and fast.packets_forwarded == 1
        assert picks == [slow.arbiter]

    @pytest.mark.parametrize("flavour", ["single-vc", "dateline"])
    def test_single_flit_packet_bookkeeping(self, flavour):
        """Both paths share ``_transfer``, so the differential cannot
        see it: pin directly what a packet that is head and tail at once
        leaves behind, and the ``route`` event it logs."""
        sim, router, inputs, _ = _standalone_router(
            flavour, [2], trace_on=True, fast=True
        )
        lock = request(4, 1, opcode=Opcode.LOCK)
        (flit,) = Packetizer(64).segment(lock)
        inputs[0].push(flit)
        sim.run(2)
        assert router.packets_forwarded == router.flits_forwarded == 1
        assert set(router._input_alloc.values()) == {None}
        assert set(router._output_owner.values()) == {None}
        assert set(router._input_head.values()) == {None}
        assert router.locked_outputs() == {"local:4": 1}
        assert router._release_version == 2  # the freed VC, then the lock
        route, lock_set = sim.trace.events
        detail = {"packet": flit.packet_id, "dest": 4, "via": "local:4"}
        if flavour == "dateline":
            detail["vc"] = 0
        assert (route.kind, list(route.detail.items())) == (
            "route", list(detail.items())
        )
        assert lock_set.kind == "lock_set"
