"""Programmable endpoints: DMA programs, streams, scenarios.

Pins the workload-layer contracts: descriptor programs execute their
dependency DAGs identically on both kernels, stream credit loops
actually backpressure, every built-in scenario builds and completes, and
the declarative TrafficSpec — the one way to make a traffic source —
validates every knob at build time and builds every kind.
"""

import importlib
import inspect
import re
import types

import pytest

import repro.ip
from differential import SCENARIOS, assert_same, run
from repro.core.transaction import ResponseStatus
from repro.ip import (
    TRAFFIC_KINDS,
    TrafficSeedError,
    TrafficSpec,
    WorkloadStallError,
)
from repro.sim.fingerprint import fingerprint_soc, reset_ids
from repro.soc import FaultSchedule, InitiatorSpec, SocBuilder, TargetSpec
from repro.sweep import Checkpoint
from repro.transport import topology as topo
from repro.workloads import (
    DmaDescriptor,
    DmaEngine,
    DmaProgramError,
    StreamChannel,
    stream_pair,
)


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_ids()
    yield


# --------------------------------------------------------------------- #
# built-in scenarios
# --------------------------------------------------------------------- #
class TestScenarioRegistry:
    """The scenarios package: one module per built-in SoC."""

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_builtin_builds_and_completes(self, name):
        assert run(name, None).fingerprint["completed"] > 0


# --------------------------------------------------------------------- #
# stream channels
# --------------------------------------------------------------------- #
class TestStreamChannel:
    def test_commit_delayed_visibility(self):
        ch = StreamChannel("ch")
        ch.put(5)
        assert ch.level(5) == 0  # put at 5 is not visible at 5
        assert ch.level(6) == 1
        assert ch.total() == 1
        assert ch.visible_at(1) == 6

    def test_initial_credit_visible_from_cycle_zero(self):
        ch = StreamChannel("credit", initial=3)
        assert ch.level(0) == 3
        with pytest.raises(ValueError, match="initial"):
            StreamChannel("bad", initial=-1)

    def test_put_wakes_waiters(self):
        woken = []
        master = types.SimpleNamespace(wake=lambda: woken.append(True))
        ch = StreamChannel("ch")
        ch.add_waiter(master)
        ch.add_waiter(master)  # idempotent
        ch.put(0)
        assert woken == [True]


# --------------------------------------------------------------------- #
# DMA program validation
# --------------------------------------------------------------------- #
class TestDmaProgramValidation:
    def test_empty_program(self):
        with pytest.raises(DmaProgramError, match="empty"):
            DmaEngine("e", [])

    def test_unknown_op(self):
        with pytest.raises(DmaProgramError, match="unknown op"):
            DmaEngine("e", [DmaDescriptor("scatter")])

    def test_after_must_reference_earlier_descriptor(self):
        with pytest.raises(DmaProgramError, match="earlier"):
            DmaEngine("e", [DmaDescriptor("read", after=(0,))])
        with pytest.raises(DmaProgramError, match="earlier"):
            DmaEngine("e", [DmaDescriptor("read"),
                            DmaDescriptor("write", after=(1,))])

    def test_compute_cannot_wait_on_channel(self):
        ch = StreamChannel("ch")
        with pytest.raises(DmaProgramError, match="compute"):
            DmaEngine("e", [DmaDescriptor("compute", delay=4, wait=ch)])

    def test_distinct_channels_sharing_a_name(self):
        with pytest.raises(DmaProgramError, match="named"):
            DmaEngine("e", [
                DmaDescriptor("read", wait=StreamChannel("tok")),
                DmaDescriptor("write", signal=StreamChannel("tok")),
            ])

    def test_on_error_knob(self):
        with pytest.raises(ValueError, match="on_error"):
            DmaEngine("e", [DmaDescriptor("read")], on_error="ignore")

    def test_beat_bytes_rejected_at_build(self):
        with pytest.raises(DmaProgramError, match="beat_bytes"):
            DmaEngine("e", [DmaDescriptor("read", beat_bytes=0)])

    def test_duplicate_after_counts_once(self):
        """A repeated edge is one dependency: the engine normalises its
        own table and leaves the (shareable) descriptor untouched."""
        shared = DmaDescriptor("write", after=(0, 0))
        engines = [DmaEngine(f"e{k}", [DmaDescriptor("read"), shared])
                   for k in range(2)]
        assert shared.after == (0, 0)
        for engine in engines:
            engine.notify_complete(engine.poll(0).txn_id, 3, ResponseStatus.OKAY)
            engine.notify_complete(engine.poll(3).txn_id, 5, ResponseStatus.OKAY)
            assert engine.done()


# --------------------------------------------------------------------- #
# DMA engines on a fabric
# --------------------------------------------------------------------- #
def _dma_soc(engines, *, strict=False, faults=None, adaptive=False,
             targets=None, **builder_kwargs):
    """Small SoC: the given engines as AXI initiators plus one memory."""
    reset_ids()
    if adaptive:
        endpoints = len(engines) + len(targets or [1])
        builder_kwargs.setdefault(
            "topology", topo.torus(4, 4, endpoints=endpoints)
        )
        builder_kwargs.update(routing="adaptive", vcs=3, vc_policy="escape")
    builder = SocBuilder(
        name="dma_test", strict_kernel=strict, faults=faults, **builder_kwargs,
    )
    for name, engine in engines.items():
        builder.add_initiator(
            InitiatorSpec(name, "AXI", engine, protocol_kwargs={"id_count": 4})
        )
    for spec in targets or [TargetSpec("mem", size=0x4000, read_latency=3,
                                       write_latency=2)]:
        builder.add_target(spec)
    return builder.build()


def _chain(src, dst, *, links=2, compute_delay=8, pattern=7):
    """read -> compute -> write, repeated ``links`` times, each link
    gated on the previous one's write."""
    program = []
    for link in range(links):
        base = len(program)
        program.append(DmaDescriptor(
            "read", address=src + link * 32,
            after=(base - 1,) if link else (),
        ))
        program.append(DmaDescriptor(
            "compute", delay=compute_delay, after=(base,),
        ))
        program.append(DmaDescriptor(
            "write", address=dst + link * 32, after=(base + 1,),
            pattern=pattern + link,
        ))
    return program


class TestDmaEngine:
    def test_chain_orders_and_lands_in_memory(self):
        engine = DmaEngine("dma0", _chain(0x0, 0x100, links=2, pattern=11))
        soc = _dma_soc({"dma0": engine})
        soc.run_to_completion()
        assert engine.done()
        # Written data is the deterministic pattern, verifiable in the
        # target memory image.
        mem = soc.memories["mem"]
        for k in range(8):
            assert mem.read_beat(0x100 + 4 * k, 4) == (11 + k) & 0xFFFFFFFF
            assert mem.read_beat(0x120 + 4 * k, 4) == (12 + k) & 0xFFFFFFFF

    def test_dependency_order_under_adaptive_routing_with_fault(self):
        """The dependency DAG holds under adaptive routing even when a
        mid-run fault epoch reroutes the flows."""
        engines = {
            f"dma{i}": DmaEngine(
                f"dma{i}", _chain(0x40 * i, 0x2000 + 0x40 * i,
                                  links=3, pattern=3 * i)
            )
            for i in range(4)
        }
        # Endpoint 0 homes at router (0, 0) and the memory at (0, 1);
        # downing that link mid-run removes dma0's only minimal hop, so
        # the recomputed epoch must detour its remaining flows.
        faults = FaultSchedule().link_down(60, (0, 0), (0, 1))
        soc = _dma_soc(
            engines, adaptive=True, faults=faults,
            targets=[TargetSpec("mem", size=0x4000, read_latency=3,
                                write_latency=2)],
        )
        soc.run_to_completion()
        degraded = sum(
            r.faults_hit
            for plane in soc.fabric._planes
            for r in plane.routers.values()
        )
        assert degraded > 0, "the fault epoch never degraded a grant"
        for engine in engines.values():
            assert engine.done()
            complete = {}
            for desc, burst, cycle in engine.complete_log:
                complete[desc] = cycle
            issued = {desc: cycle for desc, _, cycle in engine.issue_log}
            for link in range(3):
                read, compute, write = 3 * link, 3 * link + 1, 3 * link + 2
                # compute completes strictly after its read dependency...
                assert complete[compute] >= complete[read] + 8
                # ...and the write never issues before the compute is done.
                assert issued[write] >= complete[compute]
                if link:
                    assert issued[read] >= complete[write - 3]

    def test_unmapped_address_halts_by_name(self):
        engine = DmaEngine(
            "dma0", [DmaDescriptor("read", address=0x9_0000)]
        )
        soc = _dma_soc({"dma0": engine})
        with pytest.raises(WorkloadStallError) as err:
            soc.run_to_completion(max_cycles=2_000)
        assert "dma0" in str(err.value)
        assert "halted" in str(err.value)
        assert "DECERR" in str(err.value)

    def test_starved_wait_diagnosed_not_silent(self):
        """A program that can never complete raises the named stall error
        (with the starved channel) instead of a bare budget timeout."""
        never = StreamChannel("never")
        engine = DmaEngine(
            "dma0", [DmaDescriptor("read", address=0, wait=never)]
        )
        soc = _dma_soc({"dma0": engine})
        with pytest.raises(WorkloadStallError) as err:
            soc.run_to_completion(max_cycles=2_000)
        assert "starved" in str(err.value)
        assert "never" in str(err.value)


# --------------------------------------------------------------------- #
# streams + collectives
# --------------------------------------------------------------------- #
class TestStreams:
    def test_credit_backpressure_bounds_producer_lead(self):
        depth, total = 3, 12
        engines, channels = stream_pair(
            "prod", "cons", buffer_base=0, total_bursts=total, depth=depth
        )
        soc = _dma_soc(engines)
        soc.run_to_completion()
        prod, cons = engines["prod"], engines["cons"]
        assert prod.done() and cons.done()
        assert channels["data"].total() == total
        # Burst b of the producer needs b+1 credit tokens: the initial
        # `depth` preload plus one per completed consumer read — so the
        # producer can never run more than `depth` bursts ahead.
        cons_complete = {
            burst: cycle for desc, burst, cycle in cons.complete_log
        }
        lead_limited = 0
        for desc, burst, cycle in prod.issue_log:
            if burst >= depth:
                assert cons_complete[burst - depth] < cycle
                lead_limited += 1
        assert lead_limited == total - depth


# --------------------------------------------------------------------- #
# declarative TrafficSpec
# --------------------------------------------------------------------- #
class TestTrafficSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            TrafficSpec(kind="fractal").validate()

    def test_seed_required_for_random_kinds(self):
        for kind in ("poisson", "dependent"):
            with pytest.raises(TrafficSeedError):
                TrafficSpec(kind=kind, master="m", pairs=[(0, 64)],
                            seed=None).validate()

    @pytest.mark.parametrize("kind, knob, value", [
        ("poisson", "threads", 0),
        ("poisson", "tags", 0),
        ("poisson", "burst_beats", ()),
        ("poisson", "burst_beats", (0,)),
        ("poisson", "beat_bytes", 3),
        ("poisson", "read_fraction", 1.5),
        ("dependent", "read_fraction", -0.1),
        ("dependent", "beat_bytes", 3),
        ("stream", "burst_beats", 0),
        ("stream", "burst_beats", -2),
        ("stream", "beat_bytes", 3),
    ])
    def test_bad_knob_fails_at_build_naming_spec_and_knob(self, kind, knob,
                                                           value):
        """Each of these used to build and then crash (or silently
        misbehave) in the source's first intent; the spec now refuses it
        up front, naming itself and the knob."""
        spec = TrafficSpec(kind=kind, master="m", seed=1, pairs=[(0, 64)],
                           **{knob: value})
        message = f"traffic spec 'm': {knob} must be .*, got {re.escape(repr(value))}"
        with pytest.raises(ValueError, match=message):
            spec.build()

    def test_an_int_burst_means_one_length_built_either_way(self):
        source = TrafficSpec(kind="poisson", master="m", seed=1, count=1,
                             pairs=[(0, 64)], rate=1.0, burst_beats=4).build()
        assert source.poll(0).beats == 4

    def test_dependent_source_honours_beat_bytes(self):
        source = TrafficSpec(kind="dependent", master="m", seed=3, count=40,
                             pairs=[(0x100, 0x200)], beat_bytes=8).build()
        for cycle in range(0, 400, 10):  # past each think window
            txn = source.poll(cycle)
            assert txn.beat_bytes == 8
            assert txn.address % 8 == 0
            assert 0x100 <= txn.address < 0x300
            source.notify_complete(txn.txn_id, cycle, ResponseStatus.OKAY)
        assert source.done()

    def test_sync_needs_no_seed(self):
        source = TrafficSpec(kind="sync", master="m").build()
        assert source.poll(0) is not None
        assert not hasattr(source, "rng")

    def test_every_kind_builds_from_a_minimal_spec_with_its_knobs(self):
        """The build table covers every kind, each source class takes
        exactly ``(spec, name)``, and a built source carries the spec's
        knob values: no class keeps a default of its own."""
        minimal = {
            "scripted": dict(intents=[]),
            "poisson": dict(seed=1, pairs=[(0, 64)]),
            "dependent": dict(seed=1, pairs=[(0, 64)]),
            "stream": {},
            "sync": {},
            "dma": dict(program=[DmaDescriptor("read")]),
        }
        assert set(minimal) == set(TRAFFIC_KINDS)
        knobs = {  # source attribute -> spec knob, per kind
            "poisson": {"rate": "rate", "address_ranges": "pairs",
                        "remaining": "count", "beat_bytes": "beat_bytes",
                        "threads": "threads", "tags": "tags",
                        "priority": "priority", "posted_writes": "posted"},
            "dependent": {"address_ranges": "pairs", "remaining": "count",
                          "think_cycles": "think_cycles",
                          "beat_bytes": "beat_bytes", "priority": "priority"},
            "stream": {"base": "base", "beat_bytes": "beat_bytes",
                       "write": "write", "posted": "posted",
                       "priority": "priority", "gap_cycles": "gap_cycles"},
            "sync": {"style": "style", "sema_addr": "sema_addr",
                     "work_addr": "work_addr", "iterations_left": "iterations",
                     "work_ops": "work_ops"},
        }
        for kind in TRAFFIC_KINDS:
            spec = TrafficSpec(kind=kind, master="m", **minimal[kind])
            source = spec.build()
            assert source is not spec.build()  # fresh every time
            for attribute, knob in knobs.get(kind, {}).items():
                assert getattr(source, attribute) == getattr(spec, knob), (
                    kind, attribute)
            if kind != "dma":  # DmaEngine is repro.workloads' own class
                parameters = inspect.signature(type(source)).parameters
                assert list(parameters) == ["spec", "name"], kind
                assert all(p.default is p.empty for p in parameters.values())
        # A None knob takes its kind's value.
        poisson = TrafficSpec(kind="poisson", master="m", **minimal["poisson"])
        assert poisson.build().read_fraction == 0.6
        assert poisson.build().burst_beats == (1, 4)
        dependent = TrafficSpec(kind="dependent", master="m",
                                **minimal["dependent"])
        assert dependent.build().read_fraction == 0.8
        assert TrafficSpec(kind="stream", master="m").build().burst_beats == 8

    def test_public_surface_is_the_spec(self):
        assert sorted(repro.ip.__all__) == sorted([
            "MemoryDevice", "TRAFFIC_KINDS", "TrafficSeedError",
            "TrafficSpec", "WorkloadStallError",
        ])
        with pytest.raises(ModuleNotFoundError):  # the presets module
            importlib.import_module(f"{repro.ip.__name__}.masters")

    def test_master_required_to_build(self):
        with pytest.raises(ValueError, match="master name"):
            TrafficSpec(kind="poisson", seed=1, pairs=[(0, 64)]).build()

    def test_dma_kind_builds_engine(self):
        spec = TrafficSpec(kind="dma", master="m",
                           program=[DmaDescriptor("read")])
        engine = spec.build()
        assert isinstance(engine, DmaEngine)
        with pytest.raises(ValueError, match="program"):
            TrafficSpec(kind="dma", master="m").validate()


# --------------------------------------------------------------------- #
# cross-kernel determinism + checkpointing
# --------------------------------------------------------------------- #
class TestScenarioDeterminism:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_strict_and_activity_agree(self, name):
        assert_same(run(name, None, "activity"), run(name, None, "strict"))

    def test_checkpoint_restores_mid_chain(self):
        """Capture a DMA run mid-chain; the restored continuation matches
        the uninterrupted run byte-for-byte."""
        assert_same(run("dma_chain", None, cut=150), run("dma_chain", None))

    @staticmethod
    def _fan_in_soc():
        """Two engines: a fan-in + compute cascade gated on a channel the
        second engine signals.  Returns (soc, first engine)."""
        ready = StreamChannel("ready")
        fan = DmaEngine("fan", [
            DmaDescriptor("read", address=0x000, bursts=2),
            DmaDescriptor("read", address=0x100, bursts=3),
            DmaDescriptor("compute", delay=40, after=(0, 1)),
            DmaDescriptor("compute", delay=0, after=(2,)),
            DmaDescriptor("compute", delay=6, after=(3, 0)),
            DmaDescriptor("write", address=0x800, after=(4,), wait=ready,
                          bursts=2, pattern=9),
            DmaDescriptor("write", address=0xC00, after=(5, 2), pattern=5),
        ])
        feeder = DmaEngine("feeder", [
            DmaDescriptor("read", address=0x400, bursts=2, signal=ready),
        ])
        return _dma_soc({"fan": fan, "feeder": feeder}), fan

    def test_checkpoint_restores_at_every_frontier_shape(self):
        """The frontier is derived state: whatever it held at the cut —
        nothing issued, bursts in flight, a compute armed but not due,
        the last descriptor in flight, everything done — the restored
        engine rebuilds it and finishes on the uninterrupted fingerprint."""
        soc, fan = self._fan_in_soc()
        soc.run_to_completion()
        uninterrupted, end = fingerprint_soc(soc), soc.sim.cycle
        issued = {(d, b): c for d, b, c in fan.issue_log}
        armed = fan._complete_cycle[1] + 20  # compute 2 is due 40 after
        cuts = {
            "before first issue": 0,
            "bursts in flight": issued[(1, 0)] + 1,
            "compute armed, not due": armed,
            "last descriptor in flight": issued[(6, 0)] + 1,
            "done": end,
        }
        for label, at in cuts.items():
            donor, fan = self._fan_in_soc()
            donor.run(at)
            if label == "compute armed, not due":
                assert fan._compute_done[2] is not None
                assert fan._complete_cycle[2] is None
            elif label == "last descriptor in flight":
                assert fan._issued[6] == 1 and not fan.done()
            checkpoint = Checkpoint.capture(donor)
            restored, fan = self._fan_in_soc()
            checkpoint.restore_into(restored)
            assert restored.sim.cycle == at, label
            restored.run_to_completion()
            assert fan.done(), label
            assert fingerprint_soc(restored) == uninterrupted, label

    def test_engine_snapshot_format_unchanged(self):
        """Old checkpoints still load: the frontier adds no field."""
        assert DmaEngine._snapshot_fields == (
            "_issued", "_done_bursts", "_complete_cycle", "_compute_done",
            "_signals_fired", "_txn_desc", "_halted", "bursts_completed",
            "issue_log", "complete_log", "completions",
        )
