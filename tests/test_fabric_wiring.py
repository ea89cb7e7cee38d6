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
from repro.sim.kernel import Simulator
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.sweep import Checkpoint
from repro.transport import network as network_module
from repro.transport import topology as topo
from repro.transport.network import Fabric, plane_tables
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
    """Inputs and output VCs (``((port, vc), queue name)``) and physical
    outputs (names), each in the canonical order the router keeps."""
    return (
        [((inp.port, inp.vc), inp.queue.name) for inp in router._sorted_inputs],
        [((port.name, out.vc), out.queue.name)
         for port in router._physical_outputs for out in port.vcs],
        [port.name for port in router._physical_outputs],
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
        inputs, outputs, physical = port_names(router)
        assert inputs == [(key, queue.name) for key, queue in
                          sorted(router.inputs.items(), key=order)]
        assert outputs == [(key, queue.name) for key, queue in
                           sorted(router.outputs.items(), key=order)]
        assert physical == sorted(
            dict.fromkeys(port for port, _ in router.outputs),
            key=lambda port: keys[(port, 0)],
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
    lists = []
    for plane in soc.fabric._planes:
        for rid, router in plane.routers.items():
            inputs, outputs, physical = port_names(router)
            lists.append([repr(rid),
                          [[repr(key), name] for key, name in inputs],
                          [[repr(key), name] for key, name in outputs],
                          physical])
    blob = json.dumps(lists, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_e2e_workload_port_order_is_pinned():
    assert sorted(e2e.WORKLOADS) == sorted(PINNED_PORT_ORDER)
    for name, digest in PINNED_PORT_ORDER.items():
        soc = e2e.WORKLOADS[name]().builder(1105).build()
        assert port_order_digest(soc) == digest, name


#: The classes whose instances are most numerous or tick most on the e2e
#: SoCs: their instance dicts must stay key-shared.
SHARED_KEY_CLASSES = (
    "Router", "VcPhysicalLink", "InitiatorNiu", "AxiMaster", "InjectionPort",
)


def test_hot_classes_stay_under_the_shared_key_limit():
    """CPython 3.11 shares the keys of a class's instance dicts only up
    to 30 attributes; past that every instance holds a dict of its own
    (1,584 bytes per router on sharded_torus_2p, 512 of them).  Every
    instance of the hot classes on the seven e2e SoCs stays below."""
    most = {}
    for name, workload in sorted(e2e.WORKLOADS.items()):
        for component in workload().builder(1105).build().sim.components:
            cls = type(component).__name__
            if cls in SHARED_KEY_CLASSES:
                attrs = len(vars(component))
                if attrs > most.get(cls, (0, ""))[0]:
                    most[cls] = (attrs, name)
    assert sorted(most) == sorted(SHARED_KEY_CLASSES)
    # {class: (most attributes, on which workload)} of the classes over
    assert {cls: top for cls, top in most.items() if top[0] >= 30} == {}


def test_no_component_of_a_sharded_build_wraps_its_tick():
    """A sharded build gives each traffic source and injection port an
    id stream of its own as a plain attribute, so every component of
    ``sharded_torus_2p`` ticks through its class's ``tick`` (only a
    worker process mutes the components it does not own)."""
    soc = e2e.WORKLOADS["sharded_torus_2p"]().builder(1105).build()
    assert soc.shard_plan is not None
    assert [c.name for c in soc.sim.components if "tick" in vars(c)] == []


# --------------------------------------------------------------------- #
# registration order: component order is tick order
# --------------------------------------------------------------------- #
#: sha256 (first 16 hex digits) of every component's class and name and
#: every queue's name, each in registration order, for every e2e
#: workload's SoC at seed 1105, the three scenarios and the Fig-2 bus SoC
#: built from mixed_saturated's specs — taken before the builders were
#: split into named steps, and re-pinned once when one InitiatorNiu class
#: replaced the five per-family ones: with those five class names read
#: as ``InitiatorNiu`` the old builds hash to these same eleven digests.
PINNED_REGISTRATION_ORDER = {
    "bus_mixed_saturated": "8ca133f8fc8e4280",
    "collective_allreduce": "a8f9ae476347ad5e",
    "dma_chain": "723600ddfbeb7d6f",
    "dma_completion": "27852c59e4a54e33",
    "gals_links": "1d7e9533ff2239ba",
    "mixed_saturated": "88aedaa89369d5f7",
    "mixed_sparse": "88aedaa89369d5f7",
    "sharded_torus_2p": "c2464640c5e236f9",
    "stream_pipeline": "0371c4f5eb470e31",
    "sweep_fork4": "88aedaa89369d5f7",
    "torus_hotspot": "0e57b515d98c8576",
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
        if scheme == "adaptive":
            assert shared.adaptive_table is plane_tables(topology, scheme)[1][rid]
            assert shared.table is shared.adaptive_table.escape
        else:
            assert shared.adaptive_table is None
    fresh = compute_tables(topology, "dor" if scheme == "adaptive" else scheme)
    assert {rid: r.table for rid, r in req.routers.items()} == fresh


def adaptive_torus_soc():
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
    """Tables are wiring, not state: a restore leaves every router on
    the plane's one shared table, which no checkpoint carries."""
    donor = adaptive_torus_soc()
    donor.run(200)
    checkpoint = Checkpoint.capture(donor)
    fresh = adaptive_torus_soc()
    checkpoint.restore_into(fresh)
    req, rsp = fresh.fabric.request_plane, fresh.fabric.response_plane
    shared = plane_tables(req.topology, "adaptive")[1]
    for rid, router in req.routers.items():
        assert router.adaptive_table is shared[rid]
        assert rsp.routers[rid].adaptive_table is shared[rid]
    # The restored SoC carries on exactly as the donor does.
    donor.run(100)
    fresh.run(100)
    assert fresh.total_completed() == donor.total_completed()
