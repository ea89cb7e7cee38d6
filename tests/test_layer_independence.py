"""Claim C5 as a test: transport/physical knobs never change
transaction-level results (paper §1, benchmark E5).

The *same* seeded workload runs under every switching mode, several flit
widths and both routing schemes; the transaction-level fingerprint
(completed counts, final memory images, per-master completion sets) must
be byte-identical, while transport metrics are free to differ.
"""

import pytest

from repro.ip import TrafficSpec
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.transport.switching import SwitchingMode


def build(mode=SwitchingMode.WORMHOLE, flit_bits=128, routing="table",
          arbiter="priority", buffer_capacity=16):
    ranges = [(0, 0x1000), (0x1000, 0x1000)]
    builder = SocBuilder(
        mode=mode,
        flit_payload_bits=flit_bits,
        routing=routing,
        arbiter=arbiter,
        buffer_capacity=buffer_capacity,
    )
    builder.add_initiator(
        InitiatorSpec(
            "axi0", "AXI",
            TrafficSpec(kind="poisson", pairs=ranges, count=30, seed=11,
                        rate=0.25, tags=4, burst_beats=(1, 4, 8)),
            protocol_kwargs={"id_count": 4},
        )
    )
    builder.add_initiator(
        InitiatorSpec(
            "ocp0", "OCP",
            TrafficSpec(kind="poisson", pairs=ranges, count=30, seed=12,
                        rate=0.25, threads=2),
            protocol_kwargs={"threads": 2},
        )
    )
    builder.add_target(TargetSpec("mem0", size=0x1000))
    builder.add_target(TargetSpec("mem1", size=0x1000))
    return builder.build()


def transaction_fingerprint(soc):
    """Everything an IP block can observe at the transaction level."""
    completions = {}
    for name, master in soc.masters.items():
        completions[name] = (
            master.completed,
            master.errors,
            master.exokay,
            master.excl_failures,
        )
    return completions, soc.memory_image()


class TestSwitchingModeIndependence:
    def test_all_modes_same_transaction_results(self):
        results = {}
        transport_metrics = {}
        for mode in SwitchingMode:
            soc = build(mode=mode)
            soc.run_to_completion(max_cycles=200_000)
            results[mode] = transaction_fingerprint(soc)
            transport_metrics[mode] = soc.fabric.total_flits_forwarded()
        fingerprints = list(results.values())
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]
        assert all(v > 0 for v in transport_metrics.values())

    def test_modes_differ_at_transport_level(self):
        """Same transactions, different cycle counts — layering means the
        difference stays below the transaction interface."""
        cycles = {}
        for mode in (SwitchingMode.WORMHOLE, SwitchingMode.STORE_AND_FORWARD):
            soc = build(mode=mode)
            cycles[mode] = soc.run_to_completion(max_cycles=200_000)
        assert cycles[SwitchingMode.STORE_AND_FORWARD] > cycles[
            SwitchingMode.WORMHOLE
        ]


class TestPhysicalWidthIndependence:
    @pytest.mark.parametrize("flit_bits", [96, 128, 256])
    def test_width_changes_nothing_at_transaction_level(self, flit_bits):
        reference = build(flit_bits=128)
        reference.run_to_completion(max_cycles=200_000)
        candidate = build(flit_bits=flit_bits)
        candidate.run_to_completion(max_cycles=200_000)
        assert transaction_fingerprint(candidate) == transaction_fingerprint(
            reference
        )


class TestRoutingIndependence:
    def test_xy_vs_table_same_results(self):
        a = build(routing="table")
        a.run_to_completion(max_cycles=200_000)
        b = build(routing="xy")
        b.run_to_completion(max_cycles=200_000)
        assert transaction_fingerprint(a) == transaction_fingerprint(b)


class TestArbiterIndependence:
    def test_arbiter_changes_nothing_at_transaction_level(self):
        a = build(arbiter="priority")
        a.run_to_completion(max_cycles=200_000)
        b = build(arbiter="round-robin")
        b.run_to_completion(max_cycles=200_000)
        assert transaction_fingerprint(a) == transaction_fingerprint(b)
