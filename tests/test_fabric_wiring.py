"""A fabric is wired once: one table computation per topology, shared by
both planes, router port lists kept canonical as ports are added, and
components and queues registered in a pinned order."""

import hashlib
import json
import random

import pytest

from differential import E2E_SOCS, PINNED, e2e, run
from repro.bus.system import build_bus_soc
from repro.ip.traffic import TrafficSpec
from repro.sim.fingerprint import reset_ids
from repro.sim.kernel import Simulator
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.sweep import Checkpoint
from repro.transport import network as network_module
from repro.transport import topology as topo
from repro.transport.faults import FaultSchedule
from repro.transport.network import Fabric, Network
from repro.transport.router import Router
from repro.transport.routing import (
    compute_adaptive_tables,
    compute_tables,
    port_local,
    port_to,
)
from repro.workloads.scenarios import (
    collective_allreduce,
    dma_chain,
    stream_pipeline,
)

# --------------------------------------------------------------------- #
# canonical port order, whatever order the ports are added in
# --------------------------------------------------------------------- #
def wiring_plan(vcs):
    """Every (method, port, vc, keyword) a mid-torus router with two
    endpoints gets — ids chosen so string order and canonical order
    disagree ((1, 10) after (1, 2), endpoint 12 after endpoint 3)."""
    neighbours = [(1, 10), (1, 2), (0, 9), (2, 9)]
    endpoints = [12, 3]
    plan = []
    for vc in range(vcs):
        for n in neighbours:
            plan.append(("add_input", f"in:{n}", vc, {"neighbor": n}))
            plan.append(("add_output", port_to(n), vc, {"neighbor": n}))
        for ep in endpoints:
            plan.append(("add_input", f"inj:{ep}", vc, {"order": ep}))
            plan.append(("add_output", port_local(ep), vc, {"order": ep}))
    return plan


def wired_router(plan, vcs):
    sim = Simulator()
    router = Router("r", (1, 9), table={}, vcs=vcs)
    for method, port, vc, keyword in plan:
        getattr(router, method)(port, sim.new_queue(f"{port}.vc{vc}"), vc=vc,
                                **keyword)
    return router


def port_names(router):
    return (
        [(key, queue.name) for key, queue in router._sorted_inputs],
        [(key, queue.name) for key, queue in router._sorted_outputs],
        list(router._physical_outputs),
    )


@pytest.mark.parametrize("vcs", [1, 3])
def test_port_order_does_not_depend_on_insertion_order(vcs):
    plan = wiring_plan(vcs)
    canonical = port_names(wired_router(plan, vcs))
    for seed in range(8):
        shuffled = list(plan)
        random.Random(seed).shuffle(shuffled)
        router = wired_router(shuffled, vcs)
        # What a full sort over every port gave before ports were
        # inserted in place.
        keys = {
            (port, vc): (router._port_order(port, *keyword.values()), vc)
            for _, port, vc, keyword in plan
        }
        def order(item):
            return keys[item[0]]
        assert router._sorted_inputs == sorted(router.inputs.items(), key=order)
        assert router._sorted_outputs == sorted(router.outputs.items(), key=order)
        assert router._physical_outputs == sorted(
            router._output_lock, key=lambda port: keys[(port, 0)]
        )
        assert port_names(router) == canonical
    inputs, outputs, physical = canonical
    assert [key for key, _ in inputs][: 2 * vcs] == [
        ("in:(0, 9)", vc) for vc in range(vcs)
    ] + [("in:(1, 2)", vc) for vc in range(vcs)]
    assert physical == [
        "local:3", "local:12", "to:(0, 9)", "to:(1, 2)", "to:(1, 10)",
        "to:(2, 9)",
    ]


#: sha256 (first 16 hex digits) of every router's three port lists, with
#: the queue each entry names, in every e2e workload's SoC at seed 1105 —
#: taken when each list was re-sorted in full on every add.
PINNED_PORT_ORDER = {
    "dma_completion": "2520e189d5dc4a48",
    "gals_links": "962649f33c0fb490",
    "mixed_saturated": "dcee96baf929fdd6",
    "mixed_sparse": "dcee96baf929fdd6",
    "sharded_torus_2p": "c516468f622b11f7",
    "sweep_fork4": "dcee96baf929fdd6",
    "torus_hotspot": "1acbf43f03bbcf92",
}


def port_order_digest(soc):
    lists = [
        [repr(rid),
         [[repr(key), queue.name] for key, queue in router._sorted_inputs],
         [[repr(key), queue.name] for key, queue in router._sorted_outputs],
         list(router._physical_outputs)]
        for plane in soc.fabric._planes
        for rid, router in plane.routers.items()
    ]
    blob = json.dumps(lists, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_e2e_workload_port_order_is_pinned():
    assert sorted(e2e.WORKLOADS) == sorted(PINNED_PORT_ORDER)
    for name, digest in PINNED_PORT_ORDER.items():
        reset_ids()
        soc = e2e.WORKLOADS[name]().builder(1105).build()
        assert port_order_digest(soc) == digest, name


# --------------------------------------------------------------------- #
# registration order: component order is tick order
# --------------------------------------------------------------------- #
#: sha256 (first 16 hex digits) of every component's class and name and
#: every queue's name, each in registration order, for every e2e
#: workload's SoC at seed 1105, the three scenarios and the Fig-2 bus SoC
#: built from mixed_saturated's specs — taken before the builders were
#: split into named steps.
PINNED_REGISTRATION_ORDER = {
    "bus_mixed_saturated": "8ca133f8fc8e4280",
    "collective_allreduce": "097c0716f62beee0",
    "dma_chain": "db8d6ce2004b3fa1",
    "dma_completion": "6c185ea9232c2ff8",
    "gals_links": "3915c87e9dfa3b60",
    "mixed_saturated": "144b30c8545ea039",
    "mixed_sparse": "144b30c8545ea039",
    "sharded_torus_2p": "a8c15d9e35c7c899",
    "stream_pipeline": "b6aa6d024fca873f",
    "sweep_fork4": "144b30c8545ea039",
    "torus_hotspot": "3131c2132e5cfe4b",
}


def registration_digest(sim):
    blob = json.dumps(
        [[[type(c).__name__, c.name] for c in sim.components],
         [queue.name for queue in sim._queues]],
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def registration_builds():
    """``{label: build()}`` for every SoC whose order is pinned."""
    builds = {
        name: (lambda workload=workload: workload().builder(1105).build())
        for name, workload in e2e.WORKLOADS.items()
    }
    for scenario in (collective_allreduce, dma_chain, stream_pipeline):
        builds[scenario.__name__.rsplit(".", 1)[1]] = scenario.build

    def bus():
        specs = e2e.WORKLOADS["mixed_saturated"]().builder(1105)
        return build_bus_soc(specs.initiators, specs.targets)

    builds["bus_mixed_saturated"] = bus
    return builds


def test_registration_order_is_pinned():
    builds = registration_builds()
    assert sorted(builds) == sorted(PINNED_REGISTRATION_ORDER)
    for name, build in builds.items():
        reset_ids()
        digest = registration_digest(build().sim)
        assert digest == PINNED_REGISTRATION_ORDER[name], name


def test_short_windows_are_pinned():
    """The first 500 cycles of every single-process e2e workload's SoC
    at seed 1105 (the sharded one runs in worker processes) match their
    row of the harness's digest table.  A window this short stays well
    under a second; the e2e bench checks the full windows."""
    assert sorted(E2E_SOCS) == sorted(n for n, cycles in PINNED if cycles == 500)
    for name in E2E_SOCS:
        assert run(name, 500).digest == PINNED[(name, 500)], name


# --------------------------------------------------------------------- #
# one table computation per topology, shared read-only by both planes
# --------------------------------------------------------------------- #
class _Counting:
    def __init__(self, fn, calls):
        self.fn, self.calls = fn, calls

    def __call__(self, *args, **kwargs):
        self.calls[self.fn.__name__] = self.calls.get(self.fn.__name__, 0) + 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def builder_calls(monkeypatch):
    calls = {}
    for fn in (compute_tables, compute_adaptive_tables):
        monkeypatch.setattr(network_module, fn.__name__, _Counting(fn, calls))
    return calls


SCHEMES = {
    "table": (lambda: topo.mesh(3, 3), {}),
    "dor": (lambda: topo.torus(4, 4), {"vcs": 2, "vc_policy": "dateline"}),
    "adaptive": (lambda: topo.torus(4, 4), {"vcs": 3}),
}


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_one_table_computation_per_fabric(scheme, builder_calls):
    make, knobs = SCHEMES[scheme]
    builder = "compute_adaptive_tables" if scheme == "adaptive" else "compute_tables"
    topology = make()
    fabric = Fabric(Simulator(), topology, routing=scheme, **knobs)
    assert builder_calls == {builder: 1}
    Fabric(Simulator(), make(), routing=scheme, **knobs)
    assert builder_calls == {builder: 2}
    # Another fabric on the same topology reuses the memo.
    again = Fabric(Simulator(), topology, routing=scheme, **knobs)
    assert builder_calls == {builder: 2}

    req, rsp = fabric.request_plane, fabric.response_plane
    for rid in topology.routers:
        shared = req.routers[rid]
        for router in (rsp.routers[rid], again.request_plane.routers[rid]):
            assert router.table is shared.table
            assert router.adaptive_table is shared.adaptive_table
            assert router._healthy_adaptive is shared.adaptive_table
        if scheme == "adaptive":
            assert shared.adaptive_table is req._adaptive_tables[rid]
            assert shared.table is shared.adaptive_table.escape
        else:
            assert shared.adaptive_table is None
    fresh = compute_tables(topology, "dor" if scheme == "adaptive" else scheme)
    assert {rid: r.table for rid, r in req.routers.items()} == fresh


def test_a_fault_epoch_leaves_the_shared_tables_alone():
    """Two planes on one topology, a link fault on one of them: its
    routers get degraded tables and, on the heal, the pristine shared
    object back; the other plane's routers never leave it, and the
    shared tables still equal a fresh computation."""
    topology = topo.torus(4, 4)
    sim = Simulator()
    faults = FaultSchedule().link_down(5, (0, 0), (1, 0)).link_up(20, (0, 0), (1, 0))
    req = Network(sim, topology, name="req", routing="adaptive", vcs=3,
                  faults=faults)
    rsp = Network(sim, topology, name="rsp", routing="adaptive", vcs=3)
    pristine = req._adaptive_tables
    assert rsp._adaptive_tables is pristine

    sim.run(10)
    assert req.fault_injector.fault_epoch == 1
    for rid in topology.routers:
        assert req.routers[rid].adaptive_table is not pristine[rid]
        assert rsp.routers[rid].adaptive_table is pristine[rid]
        assert req.routers[rid].table is rsp.routers[rid].table
    assert req.routers[(0, 0)].adaptive_table.outputs(1) != pristine[(0, 0)].outputs(1)

    sim.run(20)
    assert req.fault_injector.fault_epoch == 2
    for rid in topology.routers:
        assert req.routers[rid].adaptive_table is pristine[rid]
        assert rsp.routers[rid].adaptive_table is pristine[rid]
    for rid, table in compute_adaptive_tables(topology).items():
        assert pristine[rid].candidates == table.candidates
        assert pristine[rid].escape == table.escape


def adaptive_torus_soc():
    reset_ids()
    builder = SocBuilder(topology=topo.torus(3, 3, endpoints=6),
                         routing="adaptive", vcs=3)
    for index in range(4):
        builder.add_initiator(InitiatorSpec(
            f"ip{index}", "AXI",
            TrafficSpec(kind="poisson", seed=40 + index, count=10_000,
                        rate=0.5, pairs=[(0, 0x1000), (0x1000, 0x1000)]),
            protocol_kwargs={"id_count": 4},
        ))
    for name in ("m0", "m1"):
        builder.add_target(TargetSpec(name, size=0x1000))
    return builder.build()


def test_a_checkpoint_restores_one_shared_table_per_router():
    donor = adaptive_torus_soc()
    donor.run(200)
    checkpoint = Checkpoint.capture(donor)
    fresh = adaptive_torus_soc()
    checkpoint.restore_into(fresh)
    req, rsp = fresh.fabric.request_plane, fresh.fabric.response_plane
    for rid, router in req.routers.items():
        restored = router.adaptive_table
        assert rsp.routers[rid].adaptive_table is restored
        assert restored is not req._adaptive_tables[rid]  # unpickled
        assert restored.candidates == req._adaptive_tables[rid].candidates
        assert restored.escape == req._adaptive_tables[rid].escape
    # The restored SoC carries on exactly as the donor does.
    donor.run(100)
    fresh.run(100)
    assert fresh.total_completed() == donor.total_completed()
