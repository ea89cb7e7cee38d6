"""Programmable endpoints: DMA programs, streams, scenarios.

Pins the workload-layer contracts: descriptor programs execute their
dependency DAGs identically on both kernels, stream credit loops
actually backpressure, every built-in scenario builds and completes, and
the declarative TrafficSpec — the one way to make a traffic source —
validates every knob at build time and builds every kind.
"""

import importlib
import inspect
import itertools
import re
import types

import pytest

import repro.ip
from differential import SCENARIOS, assert_same, run
from dma_logs import RecordingDmaEngine
from repro.core.transaction import ResponseStatus
from repro.protocols.base import ProtocolMaster
from repro.ip import (
    TRAFFIC_KINDS,
    TrafficSeedError,
    TrafficSpec,
    WorkloadStallError,
)
from repro.sim.fingerprint import fingerprint_soc
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.sweep import Checkpoint, Override, fork
from repro.sweep.fork import run_cold
from repro.transport import topology as topo
import repro.workloads.dma
from repro.workloads import DmaDescriptor, DmaProgramError, StreamChannel
from repro.workloads.channels import TokenLog
from repro.workloads.dma import DmaEngine
from repro.workloads.scenarios import stream_pipeline


# --------------------------------------------------------------------- #
# built-in scenarios
# --------------------------------------------------------------------- #
class TestScenarioRegistry:
    """The scenarios package: one module per built-in SoC."""

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_builtin_builds_and_completes(self, name):
        fingerprint = run(name, None).fingerprint
        assert ProtocolMaster.COUNTERS.total(fingerprint, "completed") > 0


# --------------------------------------------------------------------- #
# stream channels
# --------------------------------------------------------------------- #
class TestStreamChannel:
    """A ``StreamChannel`` declares a channel; a ``TokenLog`` is one SoC's
    run state of it."""

    def test_commit_delayed_visibility(self):
        log = TokenLog(StreamChannel("ch"))
        log.put(5)
        assert log.level(5) == 0  # put at 5 is not visible at 5
        assert log.level(6) == 1
        assert log.total() == 1
        assert log.visible_at(1) == 6

    def test_initial_credit_visible_from_cycle_zero(self):
        credit = StreamChannel("credit", initial=3)
        assert TokenLog(credit).level(0) == 3
        assert credit == StreamChannel("credit", initial=3)  # a value
        with pytest.raises(ValueError, match="initial"):
            StreamChannel("bad", initial=-1)

    def test_put_wakes_waiters(self):
        woken = []
        master = types.SimpleNamespace(wake=lambda: woken.append(True))
        log = TokenLog(StreamChannel("ch"))
        log.add_waiter(master)
        log.add_waiter(master)  # idempotent
        log.put(0)
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
        """A channel name is one channel: two equal declarations are one
        token log, and a name declared with two initial counts is refused
        by the build, naming the initiator and the channel."""
        engines = {"e": [DmaDescriptor("read", wait=StreamChannel("tok", 1)),
                         DmaDescriptor("write", signal=StreamChannel("tok", 1))]}
        soc = _dma_soc(engines)
        engine = soc.masters["e"].traffic
        assert engine._wait[0][0] is engine._signal[1][0] is soc.sim.channels["tok"]
        engines["f"] = [DmaDescriptor("read", signal=StreamChannel("tok"))]
        with pytest.raises(ValueError, match="initiator 'f': channel 'tok' is "
                                             "declared with initial=0 but"):
            _dma_soc(engines)

    def test_a_program_entry_that_is_no_descriptor_is_refused_by_the_engine(self):
        """The builder's channel row reads past it: the engine's own
        validation names the entry, before anything is registered."""
        program = [DmaDescriptor("read", signal=StreamChannel("tok")), "read"]
        with pytest.raises(DmaProgramError, match="1 is not a DmaDescriptor"):
            _dma_soc({"e": program})

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
            engine.bind_master(None, {})  # polled without a master
            engine.txn_ids = itertools.count()
            engine.notify_complete(engine.poll(0).txn_id, 3, ResponseStatus.OKAY)
            engine.notify_complete(engine.poll(3).txn_id, 5, ResponseStatus.OKAY)
            assert engine.done()


# --------------------------------------------------------------------- #
# DMA engines on a fabric
# --------------------------------------------------------------------- #
def _dma_soc(programs, *, strict=False, adaptive=False,
             targets=None, **builder_kwargs):
    """Small SoC: an AXI initiator per named program plus one memory; its
    engines are ``soc.masters[name].traffic``."""
    if adaptive:
        endpoints = len(programs) + len(targets or [1])
        builder_kwargs.setdefault(
            "topology", topo.torus(4, 4, endpoints=endpoints)
        )
        builder_kwargs.update(routing="adaptive", vcs=3, vc_policy="escape")
    builder = SocBuilder(
        name="dma_test", strict_kernel=strict, **builder_kwargs,
    )
    for name, program in programs.items():
        builder.add_initiator(InitiatorSpec(
            name, "AXI", TrafficSpec(kind="dma", program=program),
            protocol_kwargs={"id_count": 4},
        ))
    for spec in targets or [TargetSpec("mem", size=0x4000, read_latency=3,
                                       write_latency=2)]:
        builder.add_target(spec)
    return builder.build()


@pytest.fixture
def recording(monkeypatch):
    """Every DMA spec builds a :class:`RecordingDmaEngine` (the dma kind
    looks its engine class up when it builds)."""
    monkeypatch.setattr(repro.workloads.dma, "DmaEngine", RecordingDmaEngine)


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
        soc = _dma_soc({"dma0": _chain(0x0, 0x100, links=2, pattern=11)})
        soc.run_to_completion()
        assert soc.masters["dma0"].traffic.done()
        # Written data is the deterministic pattern, verifiable in the
        # target memory image.
        mem = soc.memories["mem"]
        for k in range(8):
            assert mem.read_beat(0x100 + 4 * k, 4) == (11 + k) & 0xFFFFFFFF
            assert mem.read_beat(0x120 + 4 * k, 4) == (12 + k) & 0xFFFFFFFF

    def test_dependency_order_under_adaptive_routing(self, recording):
        """The dependency DAG holds under adaptive routing, whose
        per-packet route choice can reorder a pair's packets in flight."""
        programs = {
            f"dma{i}": _chain(0x40 * i, 0x2000 + 0x40 * i, links=3, pattern=3 * i)
            for i in range(4)
        }
        soc = _dma_soc(
            programs, adaptive=True,
            targets=[TargetSpec("mem", size=0x4000, read_latency=3,
                                write_latency=2)],
        )
        soc.run_to_completion()
        adaptive = sum(
            r.packets_adaptive
            for plane in soc.fabric._planes
            for r in plane.routers.values()
        )
        assert adaptive > 0, "no packet took an adaptive-class VC"
        for engine in (master.traffic for master in soc.masters.values()):
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
        soc = _dma_soc({"dma0": [DmaDescriptor("read", address=0x9_0000)]})
        with pytest.raises(WorkloadStallError) as err:
            soc.run_to_completion(max_cycles=2_000)
        assert "dma0" in str(err.value)
        assert "halted" in str(err.value)
        assert "DECERR" in str(err.value)

    def test_starved_wait_diagnosed_not_silent(self):
        """A program that can never complete raises the named stall error
        (with the starved channel) instead of a bare budget timeout."""
        never = StreamChannel("never")
        soc = _dma_soc({"dma0": [DmaDescriptor("read", address=0, wait=never)]})
        with pytest.raises(WorkloadStallError) as err:
            soc.run_to_completion(max_cycles=2_000)
        assert "starved" in str(err.value)
        assert "never" in str(err.value)


# --------------------------------------------------------------------- #
# streams
# --------------------------------------------------------------------- #
class TestStreams:
    def test_credit_backpressure_bounds_producer_lead(self, recording):
        """Every hop of the ``stream_pipeline`` scenario (two pipelines
        of four stages) is a credit loop of depth 4 over 24 bursts."""
        depth, total = 4, 24
        soc = stream_pipeline.build()
        soc.run_to_completion()
        engines = {name: master.traffic for name, master in soc.masters.items()}
        for pipe in range(2):
            for hop in range(3):
                prod = engines[f"p{pipe}s{hop}"]
                cons = engines[f"p{pipe}s{hop + 1}"]
                write = len(prod.program) - 1  # the stage's store descriptor
                assert prod.done() and cons.done()
                (data,) = prod._signal[write]
                assert data is soc.sim.channels[f"p{pipe}.b{hop}.data"]
                assert data.total() == total
                # Burst b of the producer needs b+1 credit tokens: the
                # initial `depth` preload plus one per completed consumer
                # read — so the producer can never run more than `depth`
                # bursts ahead.
                cons_complete = {
                    burst: cycle for desc, burst, cycle in cons.complete_log
                    if desc == 0  # the stage's fetch descriptor
                }
                lead_limited = 0
                for desc, burst, cycle in prod.issue_log:
                    if desc == write and burst >= depth:
                        assert cons_complete[burst - depth] < cycle
                        lead_limited += 1
                assert lead_limited == total - depth


    def test_one_builder_builds_the_same_soc_every_time(self):
        """A channel declaration holds no run state: a builder whose two
        DMA specs share a data and a credit channel builds the same SoC a
        second time as a fresh builder does.  When the declaration was
        the token log, the second build's consumer saw the first run's 8
        data tokens (its ``latencies`` moved) and the first SoC's
        consumer stayed a waiter of the shared log."""

        def builder():
            data, credit = StreamChannel("data"), StreamChannel("credit", initial=2)
            burst = dict(beats=8, beat_bytes=4, bursts=8, ring=2)
            builder = SocBuilder(name="reuse")
            builder.add_initiator(InitiatorSpec("producer", "AXI", TrafficSpec(
                kind="dma", program=[DmaDescriptor(
                    "write", address=0, wait=credit, signal=data, **burst)])))
            builder.add_initiator(InitiatorSpec("consumer", "AXI", TrafficSpec(
                kind="dma", program=[DmaDescriptor(
                    "read", address=0, wait=data, signal=credit, **burst)])))
            builder.add_target(TargetSpec("mem", size=0x1000, read_latency=20))
            return builder

        def fingerprint(builder):
            soc = builder.build()
            soc.run_to_completion()
            return fingerprint_soc(soc)

        reused = builder()
        first, second = fingerprint(reused), fingerprint(reused)
        fresh = fingerprint(builder())
        assert_same(second, fresh)
        assert_same(first, fresh)


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
        source.txn_ids = itertools.count()  # polled without a master
        assert source.poll(0).beats == 4

    def test_dependent_source_honours_beat_bytes(self):
        source = TrafficSpec(kind="dependent", master="m", seed=3, count=40,
                             pairs=[(0x100, 0x200)], beat_bytes=8).build()
        source.txn_ids = itertools.count()  # polled without a master
        for cycle in range(0, 400, 10):  # past each think window
            txn = source.poll(cycle)
            assert txn.beat_bytes == 8
            assert txn.address % 8 == 0
            assert 0x100 <= txn.address < 0x300
            source.notify_complete(txn.txn_id, cycle, ResponseStatus.OKAY)
        assert source.done()

    def test_sync_needs_no_seed(self):
        source = TrafficSpec(kind="sync", master="m").build()
        source.txn_ids = itertools.count()  # polled without a master
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
        """Capture each scenario mid-run; the restored continuation, in a
        rebuild whose token logs start empty, matches the uninterrupted
        run byte-for-byte."""
        for name, cut in (("dma_chain", 150), ("stream_pipeline", 250),
                          ("collective_allreduce", 350)):
            assert_same(run(name, None, cut=cut), run(name, None))

    def test_fork_matches_cold_on_a_stream_pipeline(self):
        """A scenario rebuilds from its specs, so ``fork()`` restores a
        mid-run ``stream_pipeline`` into a fresh build and continues it
        as the cold run does."""
        donor = stream_pipeline.build()
        donor.run(250)
        override = Override(name="as built", apply=lambda soc: None)
        report = fork(Checkpoint.capture(donor), [override],
                      builder=stream_pipeline.build, cycles=350)
        forked = report["configs"]["as built"]
        assert forked["mode"] == "fork"
        assert forked["metrics"] == run_cold(stream_pipeline.build, override, 250, 350)

    @staticmethod
    def _fan_in_soc():
        """Two engines: a fan-in + compute cascade gated on a channel the
        second engine signals.  Returns (soc, first engine)."""
        ready = StreamChannel("ready")
        soc = _dma_soc({"fan": [
            DmaDescriptor("read", address=0x000, bursts=2),
            DmaDescriptor("read", address=0x100, bursts=3),
            DmaDescriptor("compute", delay=40, after=(0, 1)),
            DmaDescriptor("compute", delay=0, after=(2,)),
            DmaDescriptor("compute", delay=6, after=(3, 0)),
            DmaDescriptor("write", address=0x800, after=(4,), wait=ready,
                          bursts=2, pattern=9),
            DmaDescriptor("write", address=0xC00, after=(5, 2), pattern=5),
        ], "feeder": [
            DmaDescriptor("read", address=0x400, bursts=2, signal=ready),
        ]})
        return soc, soc.masters["fan"].traffic

    def test_checkpoint_restores_at_every_frontier_shape(self, recording):
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
