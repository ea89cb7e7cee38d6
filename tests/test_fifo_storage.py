"""A FIFO holds only its items: every bounded buffer a built SoC owns —
queue, link pipeline, memory pipeline — is a plain list (56 bytes empty
on CPython 3.11, where a ``collections.deque`` allocates a 760-byte
block up front), and a checkpoint restores each one in place."""

from collections import deque

import pytest

from differential import e2e as workloads
from repro.ip.slaves import MemoryDevice
from repro.ip.traffic import TrafficSpec
from repro.phys.link import LinkSpec, PhysicalLink, VcPhysicalLink
from repro.sim.fingerprint import reset_ids
from repro.sim.queue import SimQueue
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.sweep import Checkpoint
from repro.transport import topology as topo

#: The FIFOs on the stepping path, by owner class.
FIFOS = {
    SimQueue: ("_committed",),
    PhysicalLink: ("_pipe", "_crossing", "_deliver"),
    VcPhysicalLink: ("_pipe", "_crossing"),
    MemoryDevice: ("_pipeline",),
}


def owned_objects(soc):
    """The kernel, its tracer, every component and queue."""
    sim = soc.sim
    return [sim, sim.trace, *sim.components, *sim._queues]


def attributes(obj):
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(getattr(cls, "__slots__", ()))
    for name in sorted(names):
        if hasattr(obj, name):
            yield name, getattr(obj, name)


def deques_held(obj):
    """``(class, attribute)`` for every deque ``obj`` holds directly or
    one container level down."""
    found = []
    for name, value in attributes(obj):
        inner = value.values() if isinstance(value, dict) else (
            value if isinstance(value, (list, tuple)) else ())
        if isinstance(value, deque) or any(isinstance(v, deque) for v in inner):
            found.append((type(obj).__name__, name))
    return found


def fifo_lists(soc):
    """``{(owner class, owner, attribute): the FIFO}`` across the SoC."""
    fifos = {}
    for obj in owned_objects(soc):
        for cls, names in FIFOS.items():
            if isinstance(obj, cls):
                owner = getattr(obj, "name", None) or id(obj)
                for name in names:
                    fifos[(cls.__name__, owner, name)] = getattr(obj, name)
    return fifos


def test_no_deque_in_any_e2e_soc():
    assert len(workloads.WORKLOADS) == 7
    for name, workload in sorted(workloads.WORKLOADS.items()):
        reset_ids()
        soc = workload().builder(1105).build()
        held = sorted({hit for obj in owned_objects(soc) for hit in deques_held(obj)})
        assert held == [], name
        fifos = fifo_lists(soc)
        assert fifos and all(type(f) is list for f in fifos.values()), name


def test_the_walk_sees_a_deque():
    queue = SimQueue("q")
    queue._committed = deque()  # what every queue held before
    assert deques_held(queue) == [("SimQueue", "_committed")]


def vc_torus_soc():
    """3x3 DOR/dateline torus, 2 VCs over narrow pipelined links: every
    router link is a VcPhysicalLink."""
    reset_ids()
    builder = SocBuilder(
        topology=topo.torus(3, 3, endpoints=6), routing="dor", vcs=2,
        vc_policy="dateline",
        links={"router": LinkSpec(phit_bits=32, pipeline_latency=2)},
    )
    for index in range(4):
        builder.add_initiator(InitiatorSpec(
            f"ip{index}", "AXI",
            TrafficSpec(kind="poisson", seed=50 + index, count=10**9,
                        rate=0.5, pairs=[(0, 0x1000), (0x1000, 0x1000)]),
            protocol_kwargs={"id_count": 4},
        ))
    for name in ("m0", "m1"):
        builder.add_target(TargetSpec(name, size=0x1000))
    return builder.build()


@pytest.mark.parametrize("which, owners", [
    ("vc_torus", {"SimQueue", "VcPhysicalLink", "MemoryDevice"}),
    ("gals_links", {"SimQueue", "PhysicalLink", "MemoryDevice"}),
])
def test_restore_into_the_same_soc_refills_each_fifo_in_place(which, owners):
    if which == "vc_torus":
        soc = vc_torus_soc()
    else:
        reset_ids()
        soc = workloads.WORKLOADS[which]().builder(1105).build()
    soc.run(1500)
    before = fifo_lists(soc)
    assert {key[0] for key in before} == owners
    held = {key: len(fifo) for key, fifo in before.items()}
    assert sum(held.values()) > 0
    checkpoint = Checkpoint.capture(soc)
    soc.run(300)
    assert {key: len(fifo) for key, fifo in before.items()} != held
    checkpoint.restore_into(soc)
    after = fifo_lists(soc)
    assert after.keys() == before.keys()
    for key, fifo in after.items():
        assert fifo is before[key], key
        assert type(fifo) is list and len(fifo) == held[key], key
