"""Initiator/target NIU integration over a real fabric.

One master + NIU + 2-target fabric, per protocol: data round-trips,
ordering delivery, DECERR default-slave behaviour, exclusive monitor and
lock handling at the target NIU.
"""

import pytest

from repro.core.transaction import (
    Opcode,
    Transaction,
    make_read,
    make_write,
)
from repro.ip import TrafficSpec
from repro.niu.tag_policy import TagPolicy
from repro.sim.fingerprint import fingerprint_soc
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec

from differential import build as build_recipe


def build(protocol, intents, protocol_kwargs=None, targets=2, policy=None):
    builder = SocBuilder()
    builder.add_initiator(
        InitiatorSpec(
            "m0",
            protocol,
            TrafficSpec(kind="scripted", intents=intents),
            policy=policy,
            protocol_kwargs=protocol_kwargs or {},
        )
    )
    for i in range(targets):
        builder.add_target(TargetSpec(f"mem{i}", size=0x1000))
    return builder.build()


PROTOCOLS = [
    ("AHB", {}),
    ("AXI", {}),
    ("OCP", {"threads": 2}),
    ("PVCI", {}),
    ("BVCI", {}),
    ("AVCI", {}),
    ("PROPRIETARY", {}),
]


class TestDataRoundTrip:
    @pytest.mark.parametrize("protocol,kwargs", PROTOCOLS,
                             ids=[p for p, _ in PROTOCOLS])
    def test_write_then_read_back(self, protocol, kwargs):
        values = [0xDEADBEEF, 0x12345678, 0x0BADF00D, 0xCAFEF00D]
        intents = [make_write(0x100, values), make_read(0x100, beats=4)]
        soc = build(protocol, intents, kwargs)
        soc.run_to_completion(max_cycles=20_000)
        master = soc.masters["m0"]
        assert master.completed == 2
        assert soc.memories["mem0"].read_beat(0x100, 4) == 0xDEADBEEF
        assert master.checker.violations == []

    @pytest.mark.parametrize("protocol,kwargs", PROTOCOLS,
                             ids=[p for p, _ in PROTOCOLS])
    def test_cross_target_traffic(self, protocol, kwargs):
        intents = [
            make_write(0x0, [1]),
            make_write(0x1000, [2]),  # second target
            make_read(0x0),
            make_read(0x1000),
        ]
        soc = build(protocol, intents, kwargs)
        soc.run_to_completion(max_cycles=20_000)
        assert soc.masters["m0"].completed == 4
        assert soc.memories["mem0"].read_beat(0, 4) == 1
        assert soc.memories["mem1"].read_beat(0, 4) == 2


class TestDecodeErrors:
    def test_unmapped_address_gets_decerr_without_entering_fabric(self):
        soc = build("AXI", [make_read(0x9999_0000)])
        soc.run_to_completion(max_cycles=5_000)
        master = soc.masters["m0"]
        assert master.completed == 1
        assert master.errors == 1
        niu = soc.initiator_nius["m0"]
        assert niu.decode_errors == 1
        assert niu.requests_sent == 0  # never entered the fabric

    def test_posted_store_to_unmapped_dropped(self):
        soc = build("OCP", [make_write(0x9999_0000, [1], posted=True)],
                    {"threads": 1})
        soc.run_to_completion(max_cycles=5_000)
        assert soc.initiator_nius["m0"].decode_errors == 1

    def test_straddling_burst_rejected(self):
        # 4-beat burst starting 8 bytes before the end of mem0.
        soc = build("BVCI", [make_read(0x1000 - 8, beats=4)])
        soc.run_to_completion(max_cycles=5_000)
        assert soc.masters["m0"].errors == 1


class TestSlaveErrors:
    def test_error_range_propagates_slverr(self):
        builder = SocBuilder()
        builder.add_initiator(
            InitiatorSpec("m0", "AXI",
                          TrafficSpec(kind="scripted", intents=[make_read(0x80)]))
        )
        builder.add_target(
            TargetSpec("mem0", size=0x1000, error_ranges=[(0x80, 0x10)])
        )
        soc = builder.build()
        soc.run_to_completion(max_cycles=5_000)
        assert soc.masters["m0"].errors == 1


class TestExclusiveService:
    def _excl_pair(self):
        load = make_read(0x40)
        load.excl = True
        store = make_write(0x40, [7])
        store.excl = True
        return load, store

    def test_exclusive_pair_succeeds_uncontended(self):
        load, store = self._excl_pair()
        soc = build("AXI", [load, store])
        soc.run_to_completion(max_cycles=10_000)
        master = soc.masters["m0"]
        assert master.exokay == 2  # EXOKAY on load and store
        assert soc.memories["mem0"].read_beat(0x40, 4) == 7

    def test_exclusive_store_without_reservation_fails_and_skips_write(self):
        __, store = self._excl_pair()
        soc = build("AXI", [make_write(0x40, [1]), store])
        soc.run_to_completion(max_cycles=10_000)
        master = soc.masters["m0"]
        assert master.excl_failures == 1
        assert soc.memories["mem0"].read_beat(0x40, 4) == 1  # unchanged
        assert soc.target_nius["mem0"].excl_failures == 1

    def test_ocp_lazy_sync_maps_to_same_service(self):
        load, store = self._excl_pair()
        soc = build("OCP", [load, store], {"threads": 1})
        soc.run_to_completion(max_cycles=10_000)
        assert soc.masters["m0"].exokay >= 1  # WRC succeeded
        assert soc.memories["mem0"].read_beat(0x40, 4) == 7


class TestLockService:
    def test_ahb_locked_sequence(self):
        seq = [
            Transaction(opcode=Opcode.READEX, address=0x0),
            Transaction(opcode=Opcode.STORE_COND_LOCKED, address=0x0, data=[9]),
        ]
        soc = build("AHB", seq)
        soc.run_to_completion(max_cycles=10_000)
        assert soc.masters["m0"].completed == 2
        assert soc.memories["mem0"].read_beat(0, 4) == 9
        locks = soc.target_nius["mem0"].locks
        assert locks is not None and not locks.locked
        assert locks.acquisitions == 1


class TestOrderingDelivery:
    def test_conservative_policy_stalls_on_target_switch(self):
        from repro.core.ordering import OrderingModel
        from repro.niu.tag_policy import TagPolicy

        policy = TagPolicy(
            ordering=OrderingModel.FULLY_ORDERED,
            max_outstanding=4,
            per_stream_outstanding=4,
            multi_target=False,
        )
        intents = [make_read(0x0), make_read(0x1000), make_read(0x0)]
        soc = build("BVCI", intents, policy=policy)
        soc.run_to_completion(max_cycles=10_000)
        master = soc.masters["m0"]
        assert master.completed == 3
        assert master.checker.violations == []

    def test_multi_target_policy_reorders_internally(self):
        """Fast target's response returns first, but the NIU still
        delivers in stream order (reorder-buffer behaviour)."""
        builder = SocBuilder()
        intents = [make_read(0x0), make_read(0x1000)]  # slow then fast
        builder.add_initiator(
            InitiatorSpec("m0", "BVCI", TrafficSpec(kind="scripted", intents=intents))
        )
        builder.add_target(TargetSpec("slow", size=0x1000, read_latency=40))
        builder.add_target(TargetSpec("fast", size=0x1000, read_latency=1))
        soc = builder.build()
        soc.run_to_completion(max_cycles=20_000)
        master = soc.masters["m0"]
        assert master.completed == 2
        assert master.checker.violations == []  # in-order at the socket

    def test_axi_out_of_order_across_ids(self):
        """Different AXI IDs to targets of very different speeds complete
        out of order at the socket — legally."""
        builder = SocBuilder()
        slow_read = make_read(0x0)
        slow_read.txn_tag = 0
        fast_read = make_read(0x1000)
        fast_read.txn_tag = 1
        builder.add_initiator(
            InitiatorSpec("m0", "AXI",
                          TrafficSpec(kind="scripted", intents=[slow_read, fast_read]))
        )
        builder.add_target(TargetSpec("slow", size=0x1000, read_latency=60))
        builder.add_target(TargetSpec("fast", size=0x1000, read_latency=1))
        soc = builder.build()
        soc.run_to_completion(max_cycles=20_000)
        traffic = soc.masters["m0"].traffic
        completion_order = [txn_id for txn_id, __, __ in traffic.completions]
        assert completion_order == [fast_read.txn_id, slow_read.txn_id]


class TestNiuAccounting:
    def test_state_table_watermark_bounded_by_policy(self):
        intents = [make_read(0x10 * i) for i in range(20)]
        soc = build("BVCI", intents)
        soc.run_to_completion(max_cycles=20_000)
        niu = soc.initiator_nius["m0"]
        assert niu.table.high_watermark <= niu.policy.max_outstanding
        assert niu.requests_sent == 20
        assert niu.responses_delivered == 20

    def test_posted_stores_bypass_state_table(self):
        intents = [make_write(0x10 * i, [i], posted=True) for i in range(5)]
        soc = build("OCP", intents, {"threads": 1})
        soc.run_to_completion(max_cycles=20_000)
        niu = soc.initiator_nius["m0"]
        assert niu.posted_sent == 5
        assert niu.table.total_allocated == 0
        assert soc.target_nius["mem0"].posted_served == 5


class TestRefusalMemo:
    """Count guards (exact, noise-free) on the memoised
    ``TagPolicy.admit`` refusal of ``InitiatorNiu._issue_requests``."""

    def test_stalled_niu_does_not_re_derive_its_refusal(self, monkeypatch):
        admits = []
        real_admit = TagPolicy.admit

        def counted_admit(policy, txn, slv_addr, table):
            admits.append(table)
            return real_admit(policy, txn, slv_addr, table)

        monkeypatch.setattr(TagPolicy, "admit", counted_admit)
        soc = build_recipe("saturated-mixed")
        soc.run(2000)
        memoised = len(admits)
        nius = soc.initiator_nius
        attempts = sum(n.requests_sent + n.stall_cycles for n in nius.values())
        assert sum(n.stall_cycles for n in nius.values()) > 2000
        assert memoised < 0.5 * attempts

        # The same run with the memo defeated every cycle: admit is
        # asked on (nearly) every attempt again, and nothing observable
        # moves — stall_cycles still counts every stalled tick.
        del admits[:]
        defeated = build_recipe("saturated-mixed")
        for _ in range(2000):
            for niu in defeated.initiator_nius.values():
                niu._refused_txn = None
            defeated.run(1)
        assert len(admits) > 0.9 * attempts
        for name, niu in nius.items():
            assert defeated.initiator_nius[name].stall_cycles == niu.stall_cycles
        assert fingerprint_soc(defeated) == fingerprint_soc(soc)
