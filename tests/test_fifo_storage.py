"""A FIFO holds only its items: every bounded buffer a built SoC owns —
queue, link pipeline, memory pipeline — is a plain list (56 bytes empty
on CPython 3.11, where a ``collections.deque`` allocates a 760-byte
block up front)."""

from collections import deque

from differential import e2e as workloads
from repro.ip.slaves import MemoryDevice
from repro.phys.link import PhysicalLink, VcPhysicalLink
from repro.sim.queue import SimQueue

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
        soc = workload().builder(1105).build()
        held = sorted({hit for obj in owned_objects(soc) for hit in deques_held(obj)})
        assert held == [], name
        fifos = fifo_lists(soc)
        assert fifos and all(type(f) is list for f in fifos.values()), name


def test_the_walk_sees_a_deque():
    queue = SimQueue("q")
    queue._committed = deque()  # what every queue held before
    assert deques_held(queue) == [("SimQueue", "_committed")]
