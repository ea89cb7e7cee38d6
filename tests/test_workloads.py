"""Programmable endpoints (PR 9): DMA programs, streams, registry.

Pins the workload-layer contracts: descriptor programs execute their
dependency DAGs identically on both kernels, stream credit loops
actually backpressure, the scenario registry fails by name, and the
declarative TrafficSpec is observably equivalent to the legacy
constructors it unified.
"""

import types

import pytest

from repro.core.transaction import ResponseStatus
from repro.ip.traffic import (
    PoissonTraffic,
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
    UnknownScenarioError,
    all_to_all,
    available,
    describe,
    get,
    near_neighbor_exchange,
    register,
    stream_pair,
)


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_ids()
    yield


# --------------------------------------------------------------------- #
# scenario registry
# --------------------------------------------------------------------- #
class TestScenarioRegistry:
    def test_builtins_registered(self):
        names = available()
        assert names == tuple(sorted(names))
        for name in ("dma_chain", "stream_pipeline", "collective_allreduce"):
            assert name in names
            assert isinstance(describe(name), str) and describe(name)

    def test_unknown_scenario_named_error(self):
        with pytest.raises(UnknownScenarioError) as err:
            get("no_such_scenario")
        assert "no_such_scenario" in str(err.value)
        assert "available" in str(err.value)
        assert isinstance(err.value, LookupError)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register("dma_chain", get("dma_chain"))

    def test_module_contract_enforced(self):
        no_build = types.SimpleNamespace(describe=lambda: "x")
        with pytest.raises(ValueError, match="build"):
            register("broken_scenario", no_build)
        no_describe = types.SimpleNamespace(build=lambda **kw: None)
        with pytest.raises(ValueError, match="describe"):
            register("broken_scenario", no_describe)
        assert "broken_scenario" not in available()

    @pytest.mark.parametrize("name", ["dma_chain", "stream_pipeline",
                                      "collective_allreduce"])
    def test_builtin_builds_and_completes(self, name):
        soc = get(name).build(strict_kernel=False)
        soc.run_to_completion()
        assert soc.total_completed() > 0


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

    def test_all_to_all_and_neighbor_exchange_complete(self):
        names = [f"m{i}" for i in range(4)]
        for engines in (
            all_to_all(names, mailbox_base=0, chunk_bytes=64),
            near_neighbor_exchange(names, 2, 2, mailbox_base=0,
                                   chunk_bytes=64),
        ):
            soc = _dma_soc(engines)
            soc.run_to_completion()
            assert all(engine.done() for engine in engines.values())


# --------------------------------------------------------------------- #
# declarative TrafficSpec
# --------------------------------------------------------------------- #
class TestTrafficSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            TrafficSpec(kind="fractal").validate()

    def test_seed_required_for_random_kinds(self):
        for kind in ("poisson", "dependent", "sync"):
            with pytest.raises(TrafficSeedError):
                TrafficSpec(kind=kind, master="m", pairs=[(0, 64)],
                            seed=None).validate()

    def test_legacy_constructor_routes_through_spec_validation(self):
        with pytest.raises(TrafficSeedError):
            PoissonTraffic("m", seed=None, count=1,
                           address_ranges=[(0, 64)])
        with pytest.raises(ValueError, match="rate"):
            TrafficSpec(kind="poisson", master="m", seed=1,
                        pairs=[(0, 64)], rate=1.5).validate()

    def test_master_required_to_build(self):
        with pytest.raises(ValueError, match="master name"):
            TrafficSpec(kind="poisson", seed=1, pairs=[(0, 64)]).build()

    def test_spec_equivalent_to_legacy_constructor(self):
        """A TrafficSpec on the InitiatorSpec and direct construction
        produce the byte-identical run."""
        def build(declarative):
            reset_ids()
            builder = SocBuilder(name="eq", strict_kernel=False)
            for i in range(2):
                if declarative:
                    source = TrafficSpec(
                        kind="poisson", master=f"m{i}", seed=7 + i,
                        count=15, pairs=[(0, 0x1000)], rate=0.4,
                    )
                else:
                    source = PoissonTraffic(
                        f"m{i}", seed=7 + i, count=15,
                        address_ranges=[(0, 0x1000)], rate=0.4,
                    )
                builder.add_initiator(
                    InitiatorSpec(f"m{i}", "AXI", source,
                                  protocol_kwargs={"id_count": 2})
                )
            builder.add_target(TargetSpec("mem", size=0x1000))
            soc = builder.build()
            soc.run_to_completion()
            return fingerprint_soc(soc)

        assert build(declarative=True) == build(declarative=False)

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
    @pytest.mark.parametrize("name", ["dma_chain", "stream_pipeline",
                                      "collective_allreduce"])
    def test_strict_and_activity_agree(self, name):
        prints = []
        for strict in (True, False):
            reset_ids()
            soc = get(name).build(strict_kernel=strict)
            soc.run_to_completion()
            prints.append(fingerprint_soc(soc))
        assert prints[0] == prints[1]

    def test_checkpoint_restores_mid_chain(self):
        """Capture a DMA run mid-chain; the restored continuation matches
        the uninterrupted run byte-for-byte."""
        reset_ids()
        soc = get("dma_chain").build(strict_kernel=False)
        soc.run(150)
        checkpoint = Checkpoint.capture(soc)
        soc.run_to_completion()
        uninterrupted = fingerprint_soc(soc)

        reset_ids()
        fresh = get("dma_chain").build(strict_kernel=False)
        checkpoint.restore_into(fresh)
        assert fresh.sim.cycle == 150
        fresh.run_to_completion()
        assert fingerprint_soc(fresh) == uninterrupted

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
