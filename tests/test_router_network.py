"""Router and network integration tests (transport layer behaviour)."""

import copy
import hashlib
import itertools
import random

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
from repro.transport.qos import PriorityArbiter, make_arbiter
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
        [topo.ring(4),
         topo.Topology([(0, 1), (0, 2), (0, 3), (0, 4)], {0: 1, 1: 2, 2: 3, 3: 4},
                       name="star4"),
         topo.single_router(4),
         topo.Topology([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],
                       {0: 3, 1: 4, 2: 5, 3: 6}, name="tree_d2_f2"),
         topo.torus(3, 3)],
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
        """After a READEX passes, packets from other masters stall at the
        locked port until the holder's locked store passes (paper §3)."""
        sim = Simulator()
        net = Network(sim, topo.single_router(3))
        net.inject(0, request(2, 0, opcode=Opcode.READEX, txn_id=1))
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
        # The locked store releases; blocked packet now flows.
        net.inject(0, request(2, 0, opcode=Opcode.STORE_COND_LOCKED,
                              payload=[0], txn_id=4))
        got = drain(net, 2, sim, 2)
        assert sorted(p.txn_id for p in got) == [2, 4]

    def test_lock_support_disableable(self):
        sim = Simulator()
        net = Network(sim, topo.single_router(3), lock_support=False)
        net.inject(0, request(2, 0, opcode=Opcode.READEX, txn_id=1))
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


def test_pop_reschedules_nothing():
    """Queues wake only their consumers: popping the output of an idle,
    descheduled router — the next router's input — leaves it
    descheduled.  A producer never sleeps on space (work blocked on a
    full queue keeps it scheduled), so a pop has nobody to wake."""
    sim = Simulator()
    net = Network(sim, topo.mesh(2, 1))
    upstream, downstream = net.routers.values()
    link = upstream.outputs[(port_to(downstream.router_id), 0)]
    assert link is downstream.inputs[(f"in:{upstream.router_id}", 0)]
    sim.run(8)  # one retire sweep: every component is idle
    assert not upstream._scheduled and not downstream._scheduled
    link.push(Packetizer().segment(request(1, 0), 0)[0])
    sim.step()  # the commit wakes the link's consumer only
    assert downstream._scheduled and not upstream._scheduled
    link.pop()
    assert not upstream._scheduled
    assert upstream not in sim._wakes


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
_OPCODES = (Opcode.LOAD, Opcode.STORE, Opcode.READEX, Opcode.STORE_COND_LOCKED)


def _standalone_router(
    flavour, capacities, trace_on, fast,
    mode=SwitchingMode.WORMHOLE, arbiter="priority",
):
    """The centre router of a 3x3 torus, wired as Network wires it, but
    to free-standing queues the test feeds and drains itself."""
    sim = Simulator(trace=Tracer(enabled=trace_on))
    router = Router(
        "r", _CENTRE, mode=mode,
        arbiter=make_arbiter(arbiter), **_FLAVOURS[flavour],
    )
    vcs = router.vcs
    router.stream_fast_path = fast  # after construction, as the SoC tests do
    (endpoint,) = [ep for ep, r in _TORUS.endpoint_router.items() if r == _CENTRE]
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
            st.integers(1, 6),  # beats (writes only: 1 + ceil(beats / 2) flits)
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
    return packets, cycles, capacities


#: The router's counters a tick mutates, hashed after its records.
_ROUTER_COUNTERS = (
    "_release_version", "flits_forwarded", "packets_forwarded",
    "packets_adaptive", "packets_escape", "lock_stall_cycles",
)


def _router_state(router):
    """The compared router state: what a tick mutates and its arbiter's
    grant record, laid out as the digests were pinned over — the
    per-port and per-VC maps the records replaced, rebuilt with the same
    keys, in wiring order, with ``(port, vc)`` tuples as values."""
    by_queue = {id(inp.queue): inp for inp in router._sorted_inputs}
    inputs = [by_queue[id(queue)] for queue in router.inputs.values()]
    by_queue = {
        id(out.queue): out for port in router._physical_outputs for out in port.vcs
    }
    outputs = [by_queue[id(queue)] for queue in router.outputs.values()]

    def in_key(inp):
        return None if inp is None else (inp.port, inp.vc)

    def out_key(out):
        return None if out is None else (out.port.name, out.vc)

    state = {
        "_input_alloc": {in_key(i): out_key(i.alloc) for i in inputs},
        "_input_head": {in_key(i): i.head for i in inputs},
        "_input_age": {in_key(i): i.age for i in inputs},
        "_output_owner": {out_key(o): in_key(o.owner) for o in outputs},
        "_output_lock": {port.name: port.lock for port in router._ports.values()},
        "_alloc_fail": {in_key(i): i.fail for i in inputs},
    }
    state.update((name, getattr(router, name)) for name in _ROUTER_COUNTERS)
    arbiter = router.arbiter
    state["arbiter"] = {
        "__v__": 1, "__cls__": type(arbiter).__name__,
        "state": {"_grant_seq": arbiter._grant_seq, "_grants": arbiter._grants},
    }
    return state


def _stable_repr(router, outputs):
    """The compared state as text."""
    return repr([_router_state(router), [list(q) for q in outputs]])


def _drive_twins(flavour, schedule, trace_on, digest=None, **knobs):
    """Run the fast and the reference twin through ``schedule`` and
    compare them after every cycle; ``digest`` (a hashlib object), when
    given, also takes the compared state of every cycle and the trace."""
    packets, cycles, capacities = schedule
    vcs = _FLAVOURS[flavour].get("vcs", 1)
    twins = [
        _standalone_router(flavour, capacities, trace_on, fast, **knobs)
        for fast in (True, False)
    ]
    pending = [[] for _ in range(_IN_PORTS * vcs)]
    packet_ids = itertools.count()
    for index, dest, opcode, beats, src, priority in packets:
        store = opcode.is_write
        packet = request(
            dest, src, opcode=opcode, beats=beats if store else 1,
            payload=[0] * beats if store else None, priority=priority,
        )
        pending[index].extend(
            Packetizer(64).segment(packet, next(packet_ids), vc=index % vcs)
        )
    feeds = [pending, copy.deepcopy(pending)]
    for cycle, (arrive, pop) in enumerate(cycles):
        for (sim, router, inputs, outputs), feed in zip(twins, feeds):
            for index, queue in enumerate(inputs):
                if arrive >> index & 1 and feed[index] and queue.can_push():
                    queue.push(feed[index].pop(0))
            for index, queue in enumerate(outputs):
                if pop >> index & 1 and queue:
                    queue.pop()
            sim.run(1)
        (_, fast, _, fast_out), (_, slow, _, slow_out) = twins
        assert _router_state(fast) == _router_state(slow), f"cycle {cycle}"
        assert [list(q) for q in fast_out] == [list(q) for q in slow_out]
        if digest is not None:
            digest.update(_stable_repr(fast, fast_out).encode())
    assert twins[0][0].trace.dump() == twins[1][0].trace.dump()
    if digest is not None:
        digest.update(twins[0][0].trace.dump().encode())
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
        lone = ([(0, 4, Opcode.STORE, 3, 0, 0)], [(1, 1 << 4)] * 12, [2])
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
        lock = request(4, 1, opcode=Opcode.READEX)
        (flit,) = Packetizer(64).segment(lock, 0)
        inputs[0].push(flit)
        sim.run(2)
        assert router.packets_forwarded == router.flits_forwarded == 1
        state = _router_state(router)
        assert set(state["_input_alloc"].values()) == {None}
        assert set(state["_output_owner"].values()) == {None}
        assert set(state["_input_head"].values()) == {None}
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


# ---------------------------------------------------------------------- #
# pinned: what the twin differential cannot see
# ---------------------------------------------------------------------- #
def _pinned_schedule(seed, vcs):
    """A fixed schedule that keeps several inputs busy at once (so both
    twins take the general path) and locks ports and unlocks them
    again."""
    rng = random.Random(seed)
    n_in, n_out = _IN_PORTS * vcs, _OUT_PORTS * vcs
    packets = []
    for _ in range(30):
        index, dest, src = rng.randrange(n_in), rng.randrange(9), rng.randrange(3)
        opcode = rng.choice(_OPCODES[:2] * 4 + _OPCODES[2:3])
        packets.append((index, dest, opcode, rng.randint(1, 6), src, rng.randrange(2)))
        if opcode is Opcode.READEX:  # its locked store follows on the same input
            packets.append((index, dest, Opcode.STORE_COND_LOCKED, 1, src, 0))
    cycles = [(rng.getrandbits(n_in), rng.getrandbits(n_out)) for _ in range(70)]
    capacities = [rng.randint(1, 4) for _ in range(3)]
    return packets, cycles, capacities


#: sha256 (first 16 hex digits) of the per-cycle state the differential
#: compares — router state and output queues — plus the trace, for
#: every switch flavour and switching mode under the priority (default)
#: and age arbiters.  Pinned before the two ticks were split into named
#: phases; re-taken when the fault state left the router, and again
#: when ``lock_stalls_by_output`` and ``output_busy_cycles`` left its
#: snapshot, each time after the schedules hashed without the dropped
#: fields had matched the new digests exactly.  Re-taken once more when
#: the schedule's lock pair became READEX / STORE_COND_LOCKED (the bare
#: LOCK / UNLOCK opcodes were deleted): computed on the tree before the
#: deletion, where that pair already set and cleared locks.
PINNED_ROUTER_DIGESTS = {
    "adaptive-escape/STORE_AND_FORWARD/age": "bde8ec83175e8757",
    "adaptive-escape/STORE_AND_FORWARD/priority": "2ca27603c43c8753",
    "adaptive-escape/VIRTUAL_CUT_THROUGH/age": "083c52648444c051",
    "adaptive-escape/VIRTUAL_CUT_THROUGH/priority": "b67ac5931f7a8b4a",
    "adaptive-escape/WORMHOLE/age": "6c6e26061f230e28",
    "adaptive-escape/WORMHOLE/priority": "d2bc252fc95a246d",
    "dateline/STORE_AND_FORWARD/age": "463f537339a00905",
    "dateline/STORE_AND_FORWARD/priority": "3882356cb36afecb",
    "dateline/VIRTUAL_CUT_THROUGH/age": "44028634b605fc1a",
    "dateline/VIRTUAL_CUT_THROUGH/priority": "49ed0e7622d6ded8",
    "dateline/WORMHOLE/age": "3e1f32968a718c2a",
    "dateline/WORMHOLE/priority": "d71887f70030639d",
    "single-vc/STORE_AND_FORWARD/age": "8ba4f09bb11a0da2",
    "single-vc/STORE_AND_FORWARD/priority": "c60d726bf9f0b8a0",
    "single-vc/VIRTUAL_CUT_THROUGH/age": "9e389d91f03b06b2",
    "single-vc/VIRTUAL_CUT_THROUGH/priority": "be808876eb6e613c",
    "single-vc/WORMHOLE/age": "7dddf0a4a6900501",
    "single-vc/WORMHOLE/priority": "6e7409df532d0160",
}


class TestPinnedRouterState:
    """``TestSoloTickMatchesReference`` is relative: with two or more
    busy inputs and under SAF/VCT both twins run the same general path,
    so a change to it moves both.  These digests pin that path itself."""

    @pytest.mark.parametrize("case", sorted(PINNED_ROUTER_DIGESTS))
    def test_general_path_is_pinned(self, case):
        flavour, mode, arbiter = case.split("/")
        vcs = _FLAVOURS[flavour].get("vcs", 1)
        digest = hashlib.sha256()
        _drive_twins(
            flavour, _pinned_schedule(1105, vcs), trace_on=True, digest=digest,
            mode=SwitchingMode[mode], arbiter=arbiter,
        )
        assert digest.hexdigest()[:16] == PINNED_ROUTER_DIGESTS[case]
