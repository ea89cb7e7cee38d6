"""Unit tests for per-SoC transaction-layer configuration (claim C2/E6)."""

import pytest

from repro.core.layer import build_layer_config
from repro.core.packet import UserBit
from repro.core.services import NocService


class TestServiceDerivation:
    def test_ahb_only_needs_lock(self):
        cfg = build_layer_config(["AHB"], initiators=1, targets=1)
        assert cfg.services == {NocService.LEGACY_LOCK}

    def test_axi_and_ocp_share_the_exclusive_service(self):
        for protocols in (["AXI"], ["OCP"], ["AXI", "OCP"]):
            cfg = build_layer_config(protocols, initiators=2, targets=1)
            assert NocService.EXCLUSIVE_ACCESS in cfg.services

    def test_vci_needs_nothing(self):
        cfg = build_layer_config(["PVCI", "BVCI"], initiators=2, targets=1)
        assert cfg.services == set()

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            build_layer_config(["PCIE"], initiators=1, targets=1)

    def test_only_lock_touches_transport(self):
        cfg = build_layer_config(
            ["AHB", "AXI", "OCP"], initiators=3, targets=2
        )
        assert cfg.requires_transport_support() == [NocService.LEGACY_LOCK]


class TestPacketFormatDerivation:
    def test_exclusive_adds_exactly_one_bit(self):
        """The paper's headline: AXI/OCP exclusives cost one packet bit."""
        without = build_layer_config(["AHB"], initiators=4, targets=4)
        with_excl = build_layer_config(
            ["AHB", "AXI"], initiators=4, targets=4
        )
        delta = (
            with_excl.packet_format.header_bits()
            - without.packet_format.header_bits()
        )
        assert delta == 1
        assert with_excl.packet_format.has_user_bit("excl")

    def test_field_widths_scale_with_nodes(self):
        small = build_layer_config(["AXI"], initiators=2, targets=2)
        large = build_layer_config(["AXI"], initiators=30, targets=30)
        assert (
            large.packet_format.slv_addr_bits
            > small.packet_format.slv_addr_bits
        )

    def test_tag_bits_scale_with_outstanding(self):
        shallow = build_layer_config(
            ["AXI"], initiators=2, targets=2, max_outstanding=2
        )
        deep = build_layer_config(
            ["AXI"], initiators=2, targets=2, max_outstanding=32
        )
        assert deep.packet_format.tag_bits > shallow.packet_format.tag_bits

    def test_node_space_shared_by_both_fields(self):
        cfg = build_layer_config(["AXI"], initiators=5, targets=2)
        fmt = cfg.packet_format
        assert fmt.max_targets() >= 7
        assert fmt.max_initiators() >= 7


class TestFeatureLocality:
    def test_extra_user_bit_changes_format_only(self):
        """Adding a socket feature = one more user bit; services and
        sizing of every other field are untouched (claim C2)."""
        base = build_layer_config(["AXI", "OCP"], initiators=4, targets=4)
        extended = build_layer_config(
            ["AXI", "OCP"],
            initiators=4,
            targets=4,
            extra_user_bits=[UserBit("posted_ack", 1)],
        )
        assert extended.services == base.services
        fmt_base, fmt_ext = base.packet_format, extended.packet_format
        assert fmt_ext.header_bits() == fmt_base.header_bits() + 1
        assert fmt_ext.slv_addr_bits == fmt_base.slv_addr_bits
        assert fmt_ext.tag_bits == fmt_base.tag_bits

    def test_describe_mentions_protocols(self):
        cfg = build_layer_config(["AHB", "AXI"], initiators=2, targets=1)
        assert "AHB" in cfg.describe() and "AXI" in cfg.describe()
