"""Shared-bus baseline and bridge tests (Fig-2 system, claims C1/E8)."""

import pytest

from repro.bus import build_bus_soc, coverage_matrix, coverage_score
from repro.bus.coverage import FeatureSupport, format_matrix
from repro.core.transaction import Opcode, Transaction, make_read, make_write
from repro.ip.masters import cpu_workload, dma_workload, random_workload
from repro.ip.traffic import ScriptedTraffic
from repro.soc import InitiatorSpec, TargetSpec


def bus_soc(protocol, intents, protocol_kwargs=None, targets=2, **bus_kwargs):
    inits = [
        InitiatorSpec(
            "m0", protocol, ScriptedTraffic(intents),
            protocol_kwargs=protocol_kwargs or {},
        )
    ]
    tgts = [TargetSpec(f"mem{i}", size=0x1000) for i in range(targets)]
    return build_bus_soc(inits, tgts, **bus_kwargs)


PROTOCOLS = [
    ("AHB", {}),
    ("AXI", {}),
    ("OCP", {"threads": 2}),
    ("PVCI", {}),
    ("BVCI", {}),
    ("AVCI", {}),
    ("PROPRIETARY", {}),
]


class TestBridgedRoundTrip:
    @pytest.mark.parametrize("protocol,kwargs", PROTOCOLS,
                             ids=[p for p, _ in PROTOCOLS])
    def test_write_read_roundtrip(self, protocol, kwargs):
        intents = [make_write(0x100, [0xAB, 0xCD]), make_read(0x100, beats=2)]
        soc = bus_soc(protocol, intents, kwargs)
        soc.run_to_completion(max_cycles=50_000)
        assert soc.masters["m0"].completed == 2
        assert soc.ordering_violations() == 0

    def test_decerr_on_unmapped(self):
        soc = bus_soc("AXI", [make_read(0x9000_0000)])
        soc.run_to_completion(max_cycles=50_000)
        assert soc.masters["m0"].errors == 1


class TestBridgePenalties:
    def test_long_burst_split(self):
        """A 32-beat AXI burst exceeds the reference socket's 16-beat cap
        and is split into multiple bus transfers."""
        soc = bus_soc("AXI", [make_write(0x0, list(range(32)))])
        soc.run_to_completion(max_cycles=50_000)
        bridge = soc.bridges["m0"]
        assert bridge.splits == 1
        assert soc.bus.transfers == 2

    def test_exclusive_emulated_with_bus_lock(self):
        load = make_read(0x40)
        load.excl = True
        store = make_write(0x40, [1])
        store.excl = True
        soc = bus_soc("AXI", [load, store])
        soc.run_to_completion(max_cycles=50_000)
        bridge = soc.bridges["m0"]
        assert bridge.lock_emulations == 2
        assert soc.bus.lock_held_cycles > 0
        assert soc.bus.lock_holder is None  # released at the end
        assert soc.masters["m0"].exokay >= 1  # emulation reports success

    def test_bridge_latency_visible(self):
        fast = bus_soc("AHB", [make_read(0x0)], bridge_latency=0)
        fast.run_to_completion(max_cycles=10_000)
        slow = bus_soc("AHB", [make_read(0x0)], bridge_latency=6)
        slow.run_to_completion(max_cycles=10_000)
        lat_fast = fast.master_latency("m0")["mean"]
        lat_slow = slow.master_latency("m0")["mean"]
        # Both directions pay the pipe (±1 cycle of phase alignment).
        assert lat_slow >= lat_fast + 2 * 6 - 2

    def test_threads_serialized(self):
        """Two OCP threads behind a bridge cannot overlap — the bridge
        takes one intent at a time."""
        intents = []
        for i in range(6):
            t = make_read(0x10 * i)
            t.thread = i % 2
            intents.append(t)
        soc = bus_soc("OCP", intents, {"threads": 2})
        soc.run_to_completion(max_cycles=50_000)
        assert soc.masters["m0"].completed == 6
        # Bus saw them strictly one at a time.
        assert soc.bus.transfers == 6


class TestBusArbitration:
    def _two_master_soc(self, arbitration):
        inits = [
            InitiatorSpec("a", "BVCI",
                          ScriptedTraffic([make_read(0x10 * i) for i in range(10)])),
            InitiatorSpec("b", "BVCI",
                          ScriptedTraffic([make_read(0x10 * i) for i in range(10)])),
        ]
        return build_bus_soc(inits, [TargetSpec("mem0", size=0x1000)],
                             arbitration=arbitration)

    @pytest.mark.parametrize("arbitration", ["rr", "fixed", "priority"])
    def test_all_complete_under_any_arbitration(self, arbitration):
        soc = self._two_master_soc(arbitration)
        soc.run_to_completion(max_cycles=100_000)
        assert soc.total_completed() == 20

    def test_bus_serializes_everything(self):
        soc = self._two_master_soc("rr")
        cycles = soc.run_to_completion(max_cycles=100_000)
        assert soc.bus.utilization(cycles) > 0.5  # single shared resource

    def test_lock_blocks_other_master(self):
        seq = [
            Transaction(opcode=Opcode.READEX, address=0x0),
            Transaction(opcode=Opcode.STORE_COND_LOCKED, address=0x0, data=[1]),
        ]
        inits = [
            InitiatorSpec("locker", "AHB", ScriptedTraffic(seq)),
            InitiatorSpec("victim", "BVCI",
                          ScriptedTraffic([make_read(0x20)])),
        ]
        soc = build_bus_soc(inits, [TargetSpec("mem0", size=0x1000)])
        soc.run_to_completion(max_cycles=50_000)
        assert soc.total_completed() == 3
        assert soc.bus.lock_held_cycles > 0


class TestCoverageMatrices:
    def test_niu_coverage_is_full(self):
        """The transaction layer was designed for the socket union —
        every feature is native through an NIU (the paper's claim)."""
        for protocol in coverage_matrix("niu"):
            assert coverage_score(protocol, "niu") == 1.0

    def test_every_rich_protocol_loses_through_a_bridge(self):
        for protocol in ("AXI", "OCP", "BVCI", "AVCI"):
            assert coverage_score(protocol, "bridge") < 1.0

    def test_simple_protocols_survive_bridges(self):
        assert coverage_score("AHB", "bridge") == 1.0
        assert coverage_score("PVCI", "bridge") == 1.0

    def test_axi_specific_losses(self):
        matrix = coverage_matrix("bridge")["AXI"]
        assert matrix["out_of_order_ids"] is FeatureSupport.LOST
        assert matrix["exclusive_access"] is FeatureSupport.EMULATED

    def test_matrices_cover_same_features(self):
        niu, bridge = coverage_matrix("niu"), coverage_matrix("bridge")
        assert set(niu) == set(bridge)
        for protocol in niu:
            assert set(niu[protocol]) == set(bridge[protocol])

    def test_format_matrix_prints(self):
        text = format_matrix("bridge")
        assert "AXI" in text and "score=" in text

    def test_unknown_attachment(self):
        with pytest.raises(ValueError):
            coverage_matrix("wireless")


def _mixed_bus_run():
    """Miniature of paper bench E1b's bus side: the five initiators of
    ``benchmarks/conftest.py::mixed_initiators(count=30, rate=0.2)`` —
    OCP posted writes included — on the shared bus, to completion."""
    ranges = [(0, 0x4000), (0x4000, 0x4000)]
    initiators = [
        InitiatorSpec("cpu_ahb", "AHB",
                      cpu_workload("cpu_ahb", ranges, count=30, seed=1)),
        InitiatorSpec("gpu_axi", "AXI",
                      random_workload("gpu_axi", ranges, count=30, seed=2,
                                      tags=4, rate=0.2, burst_beats=(1, 4, 8)),
                      protocol_kwargs={"id_count": 4}),
        InitiatorSpec("dsp_ocp", "OCP",
                      random_workload("dsp_ocp", ranges, count=30, seed=3,
                                      threads=2, rate=0.2),
                      protocol_kwargs={"threads": 2}),
        InitiatorSpec("io_bvci", "BVCI",
                      random_workload("io_bvci", ranges, count=30, seed=4,
                                      rate=0.2)),
        InitiatorSpec("acc_msg", "PROPRIETARY",
                      dma_workload("acc_msg", base=0x2000, bytes_total=1024)),
    ]
    targets = [
        TargetSpec("dram", size=0x4000, read_latency=6, write_latency=3),
        TargetSpec("sram", size=0x4000, read_latency=2, write_latency=1),
    ]
    soc = build_bus_soc(initiators, targets)
    cycles = soc.run_to_completion(max_cycles=100_000)
    return soc.sim.strict, cycles, {
        name: (m.issued, m.completed, soc.master_latency(name))
        for name, m in soc.masters.items()
    }


def test_mixed_bus_completes_identically_on_both_kernels(monkeypatch):
    """Bridges pop their master's request channel *after* the master
    ticked, the case where a parked-on-backpressure master (an OCP one
    with only posted writes outstanding gets no response to wake it)
    never comes back: the activity run must finish, on the reference
    kernel's cycle, with its per-master counts and latencies."""
    monkeypatch.delenv("REPRO_SIM_STRICT", raising=False)
    activity = _mixed_bus_run()
    monkeypatch.setenv("REPRO_SIM_STRICT", "1")  # build_bus_soc takes no kernel
    reference = _mixed_bus_run()
    assert (activity[0], reference[0]) == (False, True)
    assert activity[1:] == reference[1:]
    assert sum(done for _, done, _ in activity[2].values()) > 120
