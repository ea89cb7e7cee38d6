"""Fault injection, degraded-mode routing, and partition detection (PR 6).

The tentpole surface: build-time `FaultSchedule` validation with named
errors, adaptive reroute around a mid-run link failure (with
``packets_rerouted``/``faults_hit`` stats and in-flight-phit accounting),
full-heal restoration of the pristine tables, `FabricPartitionError`
within the watchdog budget on deterministic planes and true partitions,
and the per-flow latency percentiles that measure degraded mode.
"""

import itertools

import pytest

import repro.core.transaction as txn_mod
import repro.transport.flit as flit_mod
from repro.core.packet import NocPacket, PacketKind
from repro.core.transaction import Opcode
from repro.ip import TrafficSpec
from repro.phys.link import LinkSpec
from repro.sim.kernel import SimulationError, Simulator
from repro.soc import (
    FabricPartitionError,
    FaultSchedule,
    InitiatorSpec,
    SocBuilder,
    TargetSpec,
)
from repro.transport import topology as topo
from repro.transport.faults import (
    FaultConfigError,
    NoSurvivingPathError,
    OverlappingFaultWindowError,
    UnknownFaultTargetError,
    compute_degraded_tables,
    unreachable_endpoint_pairs,
)
from repro.transport.network import Network
from repro.transport.routing import port_local, port_to


@pytest.fixture(autouse=True)
def _fresh_global_ids():
    txn_mod._txn_ids = itertools.count()
    flit_mod._flit_packet_ids = itertools.count()
    yield


def request(slv, mst, opcode=Opcode.LOAD, beats=1, priority=0, txn_id=-1,
            payload=None):
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


def build_soc(strict=False, faults=None, routing="adaptive", count=40):
    """6 AXI masters on row 0/1 of a 4x4 torus + dram/sram targets.

    Targets land on endpoints 6 (router (2, 1)) and 7 (router (3, 1)),
    so cutting link (1, 1)--(2, 1) leaves router (1, 1) — which hosts
    master m5 — with no healthy-minimal neighbour toward dram: every
    surviving candidate is a genuine detour (``packets_rerouted``).
    """
    ranges = [(0, 0x2000), (0x2000, 0x2000)]
    kw = {"vcs": 4} if routing == "adaptive" else {}
    builder = SocBuilder(
        strict_kernel=strict,
        topology=topo.torus(4, 4, endpoints=16),
        routing=routing,
        faults=faults,
        **kw,
    )
    for i in range(6):
        builder.add_initiator(InitiatorSpec(
            f"m{i}", "AXI",
            TrafficSpec(kind="poisson", pairs=ranges, count=count, seed=i,
                        tags=4, rate=0.5, burst_beats=(1, 4)),
            protocol_kwargs={"id_count": 4},
        ))
    builder.add_target(TargetSpec("dram", size=0x2000, read_latency=6,
                                  write_latency=3))
    builder.add_target(TargetSpec("sram", size=0x2000, read_latency=2,
                                  write_latency=1))
    return builder.build()


def plane_routers(soc):
    return [r for plane in soc.fabric._planes for r in plane.routers.values()]


# ---------------------------------------------------------------------- #
# build-time schedule validation: named errors
# ---------------------------------------------------------------------- #
class TestScheduleValidation:
    def _torus(self):
        return topo.torus(4, 4)

    def test_unknown_link_target(self):
        sched = FaultSchedule().link_down(10, (0, 0), (2, 2))  # not adjacent
        with pytest.raises(UnknownFaultTargetError):
            sched.validate(self._torus())

    def test_unknown_router(self):
        sched = FaultSchedule().port_down(10, (9, 9), "to:(0, 0)")
        with pytest.raises(UnknownFaultTargetError):
            sched.validate(self._torus())

    def test_unknown_port(self):
        sched = FaultSchedule().port_down(10, (0, 0), "to:(2, 2)")
        with pytest.raises(UnknownFaultTargetError):
            sched.validate(self._torus())

    def test_double_down_overlaps(self):
        sched = (FaultSchedule()
                 .link_down(10, (0, 0), (1, 0))
                 .link_down(20, (0, 0), (1, 0)))
        with pytest.raises(OverlappingFaultWindowError):
            sched.validate(self._torus())

    def test_up_without_down(self):
        sched = FaultSchedule().link_up(10, (0, 0), (1, 0))
        with pytest.raises(OverlappingFaultWindowError):
            sched.validate(self._torus())

    def test_empty_window(self):
        sched = (FaultSchedule()
                 .link_down(10, (0, 0), (1, 0))
                 .link_up(10, (0, 0), (1, 0)))
        with pytest.raises(OverlappingFaultWindowError):
            sched.validate(self._torus())

    def test_disconnecting_schedule_is_rejected(self):
        # All four links of router (0, 0) down: endpoint 0 is stranded.
        t = self._torus()
        sched = FaultSchedule()
        for n in t.neighbors((0, 0)):
            sched.link_down(10, (0, 0), n)
        with pytest.raises(NoSurvivingPathError):
            sched.validate(t)

    def test_allow_partition_downgrades_to_runtime(self):
        t = self._torus()
        sched = FaultSchedule(allow_partition=True)
        for n in t.neighbors((0, 0)):
            sched.link_down(10, (0, 0), n)
        sched.validate(t)  # must not raise

    def test_named_errors_are_fault_config_errors(self):
        for err in (UnknownFaultTargetError, OverlappingFaultWindowError,
                    NoSurvivingPathError):
            assert issubclass(err, FaultConfigError)
        assert issubclass(FaultConfigError, ValueError)
        assert issubclass(FabricPartitionError, SimulationError)

    def test_negative_cycle_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultSchedule().link_down(-1, (0, 0), (1, 0))

    def test_bad_budget_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultSchedule(partition_budget=0)

    def test_validation_runs_at_soc_build(self):
        with pytest.raises(UnknownFaultTargetError):
            build_soc(faults=FaultSchedule().link_down(10, (0, 0), (2, 2)))

    def test_a_refused_extension_is_not_kept(self):
        """A runtime extension the rows refuse leaves the schedule as it
        was, so the next valid extension is accepted and applied."""
        edge = ((1, 1), (2, 1))
        cut = FaultSchedule().link_down(100, *edge).link_up(300, *edge)
        soc = build_soc(faults=cut)
        injector = soc.fabric._planes[0].fault_injector
        overlap = FaultSchedule().link_down(200, *edge).events
        with pytest.raises(OverlappingFaultWindowError, match="down since cycle 100"):
            injector.extend_schedule(overlap)
        assert injector.schedule is cut
        window = (FaultSchedule().port_down(600, (0, 0), "to:(1, 0)")
                  .port_up(700, (0, 0), "to:(1, 0)")).events
        injector.extend_schedule(window)
        assert len(injector.schedule) == 4
        soc.run(701)
        assert [ev for _, ev in injector.applied] == cut.events + window


# ---------------------------------------------------------------------- #
# degraded-table recomputation (unit level)
# ---------------------------------------------------------------------- #
class TestDegradedTables:
    def test_cut_link_drops_dead_candidates(self):
        t = topo.torus(4, 4)
        down = {((1, 1), (2, 1)), ((2, 1), (1, 1))}
        tables, unroutable = compute_degraded_tables(t, down, set())
        assert not unroutable  # torus minus one link stays connected
        # endpoint 6 homes at (2, 1); from (1, 1) the dead port is gone
        # and the surviving candidates are genuine detours.
        cands = tables[(1, 1)].outputs(6)
        assert cands and port_to((2, 1)) not in cands
        assert tables[(1, 1)].escape_port(6) in cands

    def test_escape_preserved_away_from_fault(self):
        from repro.transport.routing import compute_adaptive_tables
        t = topo.torus(4, 4)
        healthy = compute_adaptive_tables(t)
        down = {((1, 1), (2, 1)), ((2, 1), (1, 1))}
        tables, _ = compute_degraded_tables(
            t, down, set(),
            healthy_escape={r: tbl.escape for r, tbl in healthy.items()},
        )
        # Router (3, 3) is far from the cut: its DOR escape ports survive
        # and stay minimal, so the healthy escape entries are kept.
        for endpoint in t.endpoints:
            if t.router_of(endpoint) == (3, 3):
                continue
            assert (tables[(3, 3)].escape_port(endpoint)
                    == healthy[(3, 3)].escape_port(endpoint))

    def test_dead_local_port_strands_endpoint(self):
        t = topo.torus(4, 4)
        home = t.router_of(5)
        _, unroutable = compute_degraded_tables(
            t, set(), {(home, port_local(5))}
        )
        for router in t.routers:
            assert 5 in unroutable[router]

    def test_unreachable_pairs_on_isolated_router(self):
        t = topo.torus(4, 4)
        down = set()
        for n in t.neighbors((0, 0)):
            down.add(((0, 0), n))
            down.add((n, (0, 0)))
        stranded = unreachable_endpoint_pairs(t, down, set())
        # endpoint 0 homes at (0, 0): unreachable both ways
        assert (1, 0) in stranded and (0, 1) in stranded


# ---------------------------------------------------------------------- #
# the headline: reroute around a mid-run link failure (ISSUE 6 acceptance)
# ---------------------------------------------------------------------- #
class TestAdaptiveReroute:
    CUT = ((1, 1), (2, 1))

    def test_mid_run_cut_completes_with_reroutes(self):
        soc = build_soc(faults=FaultSchedule().link_down(60, *self.CUT))
        soc.run_to_completion()
        assert soc.total_completed() == 240
        assert soc.ordering_violations() == 0
        assert all(m.finished() for m in soc.masters.values())
        routers = plane_routers(soc)
        assert sum(r.faults_hit for r in routers) > 0
        assert sum(r.packets_rerouted for r in routers) > 0
        injector = soc.fabric.request_plane.fault_injector
        assert [(c, ev.down) for c, ev in injector.applied] == [(60, True)]

    def test_heal_restores_pristine_tables(self):
        faults = (FaultSchedule()
                  .link_down(60, *self.CUT)
                  .link_up(400, *self.CUT))
        soc = build_soc(faults=faults, count=80)
        soc.run_to_completion()
        assert soc.total_completed() == 480
        assert soc.ordering_violations() == 0
        for plane in soc.fabric._planes:
            assert plane.fault_injector is not None
            assert not plane.fault_injector.down_links
            for rid, router in plane.routers.items():
                # full heal: back on the pristine DOR-escape tables, not
                # the BFS-canonical degraded recompute
                assert router.adaptive_table is plane._adaptive_tables[rid]
                assert not router._dead_ports

    def test_port_down_then_up_reroutes_and_heals(self):
        port = ((1, 1), "to:(2, 1)")
        cut = FaultSchedule().port_down(60, *port)
        healed = FaultSchedule().port_down(60, *port).port_up(400, *port)
        for faults, heals in ((healed, True), (cut, False)):
            soc = build_soc(faults=faults, count=80)
            soc.run_to_completion()
            assert soc.total_completed() == 480
            assert soc.ordering_violations() == 0
            routers = plane_routers(soc)
            assert sum(r.faults_hit for r in routers) > 0
            assert sum(r.packets_rerouted for r in routers) > 0
            injector = soc.fabric.request_plane.fault_injector
            expected = [(60, True), (400, False)] if heals else [(60, True)]
            assert [(c, ev.down) for c, ev in injector.applied] == expected
            pristine = all(
                router.adaptive_table is plane._adaptive_tables[rid]
                for plane in soc.fabric._planes
                for rid, router in plane.routers.items()
            )
            assert pristine is heals  # without the port_up, degraded stays

    def test_throughput_retention_at_least_half(self):
        healthy = build_soc()
        healthy_cycles = healthy.run_to_completion()
        degraded = build_soc(faults=FaultSchedule().link_down(60, *self.CUT))
        degraded_cycles = degraded.run_to_completion()
        assert degraded.total_completed() == healthy.total_completed()
        retention = healthy_cycles / degraded_cycles
        assert retention >= 0.5, (
            f"degraded throughput retention {retention:.2f} < 0.5 "
            f"({healthy_cycles} healthy vs {degraded_cycles} faulted cycles)"
        )


# ---------------------------------------------------------------------- #
# partition detection: loud, named, bounded
# ---------------------------------------------------------------------- #
class TestPartitionDetection:
    def test_dor_plane_detects_unroutable_destination(self):
        # The very schedule the adaptive plane routes around: on the
        # deterministic plane (tables kept) the cut makes dram
        # unroutable from m5's router, so the watchdog must raise the
        # named error within its budget, not wedge.
        faults = FaultSchedule(partition_budget=256).link_down(
            60, *TestAdaptiveReroute.CUT
        )
        soc = build_soc(faults=faults, routing="dor")
        with pytest.raises(FabricPartitionError) as exc:
            soc.run_to_completion(max_cycles=100_000)
        # bounded: fault at 60, budget 256, detection within a couple of
        # watchdog periods (re-arm happens only while nothing is provably
        # stuck yet)
        assert soc.sim.cycle <= 60 + 4 * 256
        assert "unreachable" in str(exc.value)

    def test_true_partition_detected_on_adaptive_plane(self):
        # Isolate router (2, 1) (home of dram, endpoint 6) entirely; the
        # build-time check is explicitly waived so the runtime watchdog
        # is what stands between the user and a silent wedge.
        t = topo.torus(4, 4, endpoints=16)
        faults = FaultSchedule(partition_budget=256, allow_partition=True)
        for n in t.neighbors((2, 1)):
            faults.link_down(60, (2, 1), n)
        soc = build_soc(faults=faults)
        with pytest.raises(FabricPartitionError):
            soc.run_to_completion(max_cycles=100_000)
        assert soc.sim.cycle <= 60 + 4 * 256

    def test_partition_error_is_catchable_as_simulation_error(self):
        faults = FaultSchedule(partition_budget=128).link_down(
            60, *TestAdaptiveReroute.CUT
        )
        soc = build_soc(faults=faults, routing="dor")
        with pytest.raises(SimulationError):
            soc.run_to_completion(max_cycles=100_000)


# ---------------------------------------------------------------------- #
# watchdog parking: idle degraded fabrics skip again (PR 7)
# ---------------------------------------------------------------------- #
class TestWatchdogParking:
    def _net(self, sim, faults):
        return Network(sim, topo.ring(4), routing="adaptive", vcs=3,
                       faults=faults)

    def test_parks_when_drained_and_rearms_on_injection(self):
        # Permanent (never healed) cut on a still-connected ring: the
        # fabric is degraded forever.  Pre-PR-7 the watchdog re-armed
        # every partition_budget cycles even with nothing in flight,
        # pinning the event wheel awake for the rest of the run.
        sim = Simulator()
        net = self._net(
            sim, FaultSchedule(partition_budget=64).link_down(6, 0, 1)
        )
        net.inject(0, request(1, 0, txn_id=1))
        received = []

        def pump():
            queue = net.ejected(1)
            while queue:
                received.append(queue.pop())
            return bool(received)

        sim.run_until(pump, max_cycles=5000)
        injector = net.fault_injector
        sim.run(2 * injector.budget + 8)
        # drained + no heal pending -> parked, idle, wheel-skippable
        assert injector._parked and injector._deadline is None
        assert injector.next_event_cycle(sim.cycle) is None
        skipped = sim.cycles_skipped
        sim.run(5000)
        assert sim.cycles_skipped - skipped >= 4000
        # new traffic re-arms the watchdog from the injection wake path
        received.clear()
        net.inject(0, request(1, 0, txn_id=2))
        sim.run(8)
        assert not injector._parked and injector._deadline is not None
        sim.run_until(pump, max_cycles=5000)
        assert received[0].txn_id == 2

    def test_rearmed_watchdog_still_detects_partition(self):
        # Isolate router 2 with no traffic at all: the watchdog's first
        # deadline finds nothing stuck and parks.  A packet injected
        # toward the stranded endpoint must wake it back up and still
        # produce the loud, bounded partition error.
        sim = Simulator()
        faults = FaultSchedule(partition_budget=64, allow_partition=True)
        faults.link_down(6, 1, 2).link_down(6, 2, 3)
        net = self._net(sim, faults)
        sim.run(200)
        injector = net.fault_injector
        assert injector._parked and injector.next_event_cycle(sim.cycle) is None
        net.inject(0, request(2, 0, txn_id=7))
        with pytest.raises(FabricPartitionError):
            sim.run(4 * injector.budget)
        assert not injector._parked


# ---------------------------------------------------------------------- #
# in-flight phit accounting at a cut (drain semantics)
# ---------------------------------------------------------------------- #
class TestInFlightAccounting:
    def test_cut_mid_stream_drains_and_accounts(self):
        # Pipelined links so phits are genuinely in flight mid-wire;
        # ring(4) stays connected with one link down (the long way
        # around), so everything must still deliver.
        sim = Simulator()
        t = topo.ring(4)
        net = Network(
            sim, t, routing="adaptive", vcs=3,
            link_spec=LinkSpec(phit_bits=64, pipeline_latency=2),
            faults=FaultSchedule().link_down(6, 0, 1),
        )
        # Long store 0 -> 1: the head wins "to:1" and is streaming when
        # the cut at cycle 6 lands.
        net.inject(0, request(1, 0, opcode=Opcode.STORE, beats=16,
                              payload=[0] * 16, txn_id=1))
        received = []

        def pump():
            queue = net.ejected(1)
            while queue:
                received.append(queue.pop())
            return len(received) >= 1

        sim.run_until(pump, max_cycles=5000)
        assert received[0].txn_id == 1  # drained across the cut, not lost
        cut_stat = sim.stats.counter("net.faults.phits_in_flight_at_cut")
        assert cut_stat.value > 0

    def test_transparent_links_account_zero(self):
        sim = Simulator()
        net = Network(
            sim, topo.ring(4), routing="adaptive", vcs=3,
            faults=FaultSchedule().link_down(2, 0, 1),
        )
        sim.run(10)
        assert net.fault_injector.applied
        # ideal wires: the "link" is the downstream buffer, nothing is
        # ever mid-wire
        assert sim.stats.counter("net.faults.phits_in_flight_at_cut").value == 0


# ---------------------------------------------------------------------- #
# degraded-mode measurement: per-flow latency percentiles
# ---------------------------------------------------------------------- #
class TestFlowStats:
    def test_percentiles_per_priority_and_pair(self):
        soc = build_soc(count=20)
        soc.run_to_completion()
        flows = soc.flow_stats()
        assert set(flows) == {"request", "response"}
        for plane in flows.values():
            assert plane["priority"], "per-priority histograms missing"
            assert plane["pairs"], "per-pair histograms missing"
            for summary in plane["priority"].values():
                for key in ("p50", "p99", "p999", "count", "max"):
                    assert key in summary
                assert summary["p50"] <= summary["p99"] <= summary["p999"]

    def test_pair_flows_are_src_dst_labelled(self):
        soc = build_soc(count=20)
        soc.run_to_completion()
        pairs = soc.flow_stats()["request"]["pairs"]
        # every request pair ends at a target endpoint (6 = dram, 7 = sram)
        for label in pairs:
            src, dst = label.split("->")
            assert int(dst) in (6, 7) and 0 <= int(src) < 6
