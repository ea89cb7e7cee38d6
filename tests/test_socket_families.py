"""A socket family is one row: every layer reads it, nothing restates it."""

import pytest

from repro.bus.system import build_bus_soc
from repro.core.layer import build_layer_config
from repro.core.ordering import OrderingModel
from repro.core.packet import PacketFormat
from repro.core.protocols import FAMILIES, family
from repro.ip import TrafficSpec
from repro.niu.gate_count import bridge_gate_count, niu_gate_count
from repro.niu.tag_policy import TagPolicy, default_policy
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.soc.builder import MODELS
from repro.soc.config import KNOWN_PROTOCOLS


def one_family_soc(protocol, policy):
    builder = SocBuilder()
    builder.add_initiator(InitiatorSpec(
        "m0", protocol,
        TrafficSpec(kind="poisson", pairs=[(0, 0x1000)], count=4, seed=1),
        policy=policy,
    ))
    builder.add_target(TargetSpec("mem", size=0x1000))
    return builder.build()


def test_one_table_names_the_families():
    assert set(FAMILIES) == set(MODELS) == set(KNOWN_PROTOCOLS)
    assert KNOWN_PROTOCOLS == tuple(FAMILIES)


def test_every_layer_reads_its_row():
    """A SoC with all seven families: each master's ordering model and
    each NIU's default policy are its family row's, and the NIU and a
    bus bridge both serve the socket with the master's native side."""
    builder = SocBuilder()
    for index, protocol in enumerate(FAMILIES):
        builder.add_initiator(InitiatorSpec(
            f"m{index}", protocol,
            TrafficSpec(kind="poisson", pairs=[(0, 0x1000)], count=4,
                        seed=index),
        ))
    builder.add_target(TargetSpec("mem", size=0x1000))
    soc = builder.build()
    bus_soc = build_bus_soc(builder.initiators, builder.targets)
    for index, (protocol, row) in enumerate(FAMILIES.items()):
        master = soc.masters[f"m{index}"]
        niu = soc.initiator_nius[f"m{index}"]
        assert type(master) is MODELS[protocol]
        assert master.protocol_name == niu.socket.family == protocol
        assert type(niu.native) is master.native_side
        bridged = bus_soc.masters[f"m{index}"]
        assert type(bus_soc.bridges[f"m{index}"].native) is bridged.native_side
        assert bridged.native_side is master.native_side
        assert master.ordering_model is row.ordering
        assert master.checker.model is row.ordering
        assert niu.policy == default_policy(protocol) == TagPolicy(
            ordering=row.ordering,
            tag_bits=row.tag_bits,
            max_outstanding=row.max_outstanding,
            per_stream_outstanding=row.per_stream_outstanding,
            multi_target=row.multi_target,
        )
    soc.run_to_completion()
    assert soc.total_completed() == 4 * len(FAMILIES)
    assert soc.ordering_violations() == 0


@pytest.mark.parametrize("model", list(OrderingModel), ids=lambda m: m.value)
@pytest.mark.parametrize("protocol", list(FAMILIES))
def test_policy_ordering_must_match_the_family(protocol, model):
    policy = TagPolicy(ordering=model)
    native = family(protocol).ordering
    if model is native:
        soc = one_family_soc(protocol, policy)
        assert soc.initiator_nius["m0"].policy is policy
        soc.run_to_completion()
        assert soc.total_completed() == 4
        return
    with pytest.raises(ValueError) as info:
        one_family_soc(protocol, policy)
    message = str(info.value)
    for part in ("m0.niu", protocol, native.value, model.value):
        assert part in message


@pytest.mark.parametrize("lookup", [
    lambda: bridge_gate_count("PCIE"),
    lambda: bridge_gate_count("AXI", reference_protocol="PCIE"),
    lambda: niu_gate_count("PCIE", default_policy("AXI"), PacketFormat()),
    lambda: build_layer_config(["AXI", "PCIE"], initiators=2, targets=1),
    lambda: default_policy("PCIE"),
], ids=["bridge_gates", "bridge_reference", "niu_gates", "layer_config",
        "default_policy"])
def test_unknown_family_is_one_named_error(lookup):
    with pytest.raises(KeyError) as info:
        lookup()
    message = str(info.value)
    assert "unknown socket family 'PCIE'" in message
    assert all(name in message for name in FAMILIES)


def test_initiator_spec_keeps_its_value_error():
    with pytest.raises(ValueError, match="unknown protocol 'PCIE'"):
        InitiatorSpec("m0", "pcie")
