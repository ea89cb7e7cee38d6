"""Shared-bus baseline and bridge tests (Fig-2 system, claims C1/E8)."""

import hashlib
import json

import pytest

from differential import exclusive, pinned_bus_soc
from repro.bus import build_bus_soc, coverage_matrix, coverage_score
from repro.bus.coverage import FeatureSupport, format_matrix
from repro.core.transaction import Opcode, Transaction, make_read, make_write
from repro.ip import TrafficSpec
from repro.sim.fingerprint import fingerprint_soc
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec


def bus_soc(protocol, intents, protocol_kwargs=None, targets=2, **bus_kwargs):
    inits = [
        InitiatorSpec(
            "m0", protocol, TrafficSpec(kind="scripted", intents=intents),
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

    def test_zero_latency_keeps_each_answer(self):
        """A zero-latency bridge takes the next intent in the cycle the
        last one completes; the answer it still owes keeps its DECERR."""
        intents = [make_read(address) for address in (0x9000_0000, 0x0) * 2]
        soc = bus_soc("AXI", intents, bridge_latency=0)
        soc.run_to_completion(max_cycles=10_000)
        assert soc.masters["m0"].errors == 2

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
    def _two_master_soc(self):
        inits = [
            InitiatorSpec(name, "BVCI",
                          TrafficSpec(kind="scripted",
                                      intents=[make_read(0x10 * i) for i in range(10)]))
            for name in ("a", "b")
        ]
        return build_bus_soc(inits, [TargetSpec("mem0", size=0x1000)])

    def test_all_complete(self):
        soc = self._two_master_soc()
        soc.run_to_completion(max_cycles=100_000)
        assert soc.total_completed() == 20

    def test_bus_serializes_everything(self):
        soc = self._two_master_soc()
        cycles = soc.run_to_completion(max_cycles=100_000)
        assert soc.bus.utilization(cycles) > 0.5  # single shared resource

    def test_a_waiting_master_sees_no_other_granted_twice(self):
        """Bounded wait: while one master's request waits for the bus,
        every other master is granted at most once.  The routers'
        least-recently-granted arbiter keeps this because every grant
        goes to the requester whose last grant is oldest, over all
        requesters; the deleted ``priority`` mode rotated over a subset
        only, which can starve a master
        (``transport.qos.Arbiter._round_robin``)."""
        inits = [
            InitiatorSpec(f"m{i}", "BVCI", TrafficSpec(kind="scripted", intents=[
                make_read(0x10 * j) for j in range(4 + 3 * i)
            ]))
            for i in range(4)
        ]
        soc = build_bus_soc(inits, [TargetSpec("mem0", size=0x1000)])
        grants = []  # (masters requesting, master granted), per grant
        pick = soc.bus.arbiter.pick

        def recording(output, candidates):
            winner = pick(output, candidates)
            grants.append((tuple(c.port for c in candidates), winner.port))
            return winner

        soc.bus.arbiter.pick = recording
        soc.run_to_completion(max_cycles=100_000)
        assert soc.total_completed() == sum(4 + 3 * i for i in range(4))
        assert len({len(waiting) for waiting, _ in grants}) > 2  # varied contests
        for master in range(4):
            others: dict = {}
            for waiting, winner in grants:
                if master not in waiting or winner == master:
                    others.clear()
                    continue
                others[winner] = others.get(winner, 0) + 1
                assert others[winner] == 1, (master, winner)

    def test_lock_blocks_other_master(self):
        seq = [
            Transaction(opcode=Opcode.READEX, address=0x0),
            Transaction(opcode=Opcode.STORE_COND_LOCKED, address=0x0, data=[1]),
        ]
        inits = [
            InitiatorSpec("locker", "AHB", TrafficSpec(kind="scripted", intents=seq)),
            InitiatorSpec("victim", "BVCI",
                          TrafficSpec(kind="scripted", intents=[make_read(0x20)])),
        ]
        soc = build_bus_soc(inits, [TargetSpec("mem0", size=0x1000)])
        soc.run_to_completion(max_cycles=50_000)
        assert soc.total_completed() == 3
        assert soc.bus.lock_held_cycles > 0


class TestBridgedExclusives:
    def test_a_store_issued_behind_its_load_cannot_wedge_the_bus(self):
        """An AXI master issues an exclusive load and its store back to
        back behind a plain read, beside a BVCI master reading the same
        memory.  The bridge emulates the pair with a bus lock that the
        load takes and the store drops.  The alternation between ``ar``
        and ``aw`` pulled the store first, the load's lock was never
        dropped and the BVCI master starved at 2 of 4; the AXI side now
        keeps an exclusive store behind its load."""
        initiators = [
            InitiatorSpec("cpu", "AXI", TrafficSpec(kind="scripted", intents=[
                make_read(0x0), exclusive(make_read(0x40)), exclusive(make_write(0x40, [1])),
            ])),
            InitiatorSpec("io", "BVCI", TrafficSpec(kind="scripted", intents=[
                make_read(0x10 * i) for i in range(4)
            ])),
        ]
        soc = build_bus_soc(initiators, [TargetSpec("mem0", size=0x1000)])
        soc.run_to_completion(max_cycles=5_000)
        assert soc.bus.lock_holder is None
        assert soc.masters["io"].completed == 4
        assert soc.masters["cpu"].exokay == 2


class TestBusTargetsAreNocMemories:
    """A bus target is the memory model a NoC target serves."""

    TARGET = TargetSpec("mem0", size=0x1000, read_latency=5, write_latency=3,
                        per_beat_cycles=2, error_ranges=[(0x100, 0x10)])

    @staticmethod
    def _intents():
        return [
            make_write(0x40, [1, 2, 3, 4]), make_read(0x40, beats=4),
            make_read(0x104), make_write(0x108, [9]),  # the error window
            make_read(0x0, beats=2),
        ]

    def _cpu(self, intents=None):
        return InitiatorSpec("cpu", "AXI", TrafficSpec(
            kind="scripted", intents=intents or self._intents()))

    @staticmethod
    def _answers(soc):
        """``{txn_id: (resp, data)}`` of every AXI response the master
        collects, read off its response channels."""
        master, answers = soc.masters["cpu"], {}
        collect = master.collect_responses

        def recording(cycle):
            answers.update((r.txn_id, (r.rresp, r.rdata)) for r in master.socket.rsp("r"))
            answers.update((b.txn_id, (b.bresp, None)) for b in master.socket.rsp("b"))
            return collect(cycle)

        master.collect_responses = recording
        soc.run_to_completion(max_cycles=20_000)
        return answers

    def test_same_status_and_data_under_both_builders(self):
        bus = build_bus_soc([self._cpu()], [self.TARGET])
        builder = SocBuilder()
        builder.add_initiator(self._cpu())
        builder.add_target(self.TARGET)
        noc = builder.build()
        on_bus, on_noc = self._answers(bus), self._answers(noc)
        assert on_bus == on_noc
        assert [resp.value for resp, _ in on_bus.values()] == [
            "OKAY", "OKAY", "SLVERR", "SLVERR", "OKAY"]
        assert on_bus[min(on_bus) + 1][1] == [1, 2, 3, 4]
        memory = bus.bus.targets[0]
        assert (memory.reads_served, memory.writes_served, memory.errors_served) == (2, 1, 2)
        assert memory.store.image() == noc.memories["mem0"].store.image()

    def test_a_burst_past_the_target_end_is_decerr_under_both_builders(self):
        """A burst that starts inside a target and runs past its end is
        DECERR with no data on the bus as on the NoC, whether the bridge
        splits it (the 32-beat read, whose first 16 beats fit) or not
        (the 4-beat one)."""
        def cpu():
            return self._cpu([make_read(0xFF8, beats=4), make_read(0x10, beats=16),
                              make_read(0xFC0, beats=32)])

        target = TargetSpec("mem0", size=0x1000)
        builder = SocBuilder()
        builder.add_initiator(cpu())
        builder.add_target(target)
        on_noc = self._answers(builder.build())
        on_bus = self._answers(build_bus_soc([cpu()], [target]))
        assert on_bus == on_noc
        statuses = [on_noc[txn_id][0].value for txn_id in sorted(on_noc)]
        assert statuses == ["DECERR", "OKAY", "DECERR"]

    def test_occupancy_follows_the_target_latency(self):
        """A transfer holds the bus for an address cycle, its beats and
        the target's latency, which an SLVERR pays too."""
        intents = self._intents()
        soc = build_bus_soc([self._cpu(intents)], [self.TARGET])
        soc.run_to_completion(max_cycles=20_000)
        t = self.TARGET
        assert soc.bus.busy_cycles == sum(
            1 + txn.beats + (t.read_latency if txn.opcode.is_read else t.write_latency)
            + t.per_beat_cycles * txn.beats
            for txn in intents
        )


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
                      TrafficSpec(kind="dependent", pairs=ranges, count=30,
                                  seed=1)),
        InitiatorSpec("gpu_axi", "AXI",
                      TrafficSpec(kind="poisson", pairs=ranges, count=30,
                                  seed=2, tags=4, rate=0.2,
                                  burst_beats=(1, 4, 8)),
                      protocol_kwargs={"id_count": 4}),
        InitiatorSpec("dsp_ocp", "OCP",
                      TrafficSpec(kind="poisson", pairs=ranges, count=30,
                                  seed=3, threads=2, rate=0.2),
                      protocol_kwargs={"threads": 2}),
        InitiatorSpec("io_bvci", "BVCI",
                      TrafficSpec(kind="poisson", pairs=ranges, count=30,
                                  seed=4, rate=0.2)),
        InitiatorSpec("acc_msg", "PROPRIETARY",
                      TrafficSpec(kind="stream", base=0x2000, bytes_total=1024)),
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


#: ``pinned_bus_soc``'s digest after its run to completion, re-taken when the recipe gained the
#: back-to-back AXI exclusive pair (``pair_axi``), which wedged the bus
#: before the AXI side kept an exclusive store behind its load.  The
#: recipe without it read the same digest with the bus's own round-robin
#: and memory copy as with the routers' arbiter and ``Memory``.  Re-taken
#: again when a store's image became its two hex strings, after the old
#: model hashed with the new image had matched it.  Re-taken when the
#: recipe returned ``fingerprint_soc`` instead of its own tuples, after
#: the old model, its readers patched to emit that shape, had matched it.
PINNED_BUS_RUN = "b2d47661abd1b379"


def test_pinned_bus_run():
    soc = pinned_bus_soc()
    soc.run_to_completion(max_cycles=100_000)
    observed = fingerprint_soc(soc)
    assert observed["masters"]["acc_msg"][1] == 4  # the FENCE answered
    assert observed["bridges"]["gpu_axi.bridge"][1] == 2  # both 40-beat bursts split
    digest = hashlib.sha256(
        json.dumps(observed, sort_keys=True, default=repr).encode()
    ).hexdigest()[:16]
    assert digest == PINNED_BUS_RUN
