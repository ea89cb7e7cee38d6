"""Unit + property tests for address decoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.address_map import AddressMap, AddressRange, DecodeError


def small_map():
    m = AddressMap()
    m.add_range(0x0000, 0x1000, slv_addr=0, name="rom")
    m.add_range(0x2000, 0x2000, slv_addr=1, name="ram")
    m.add_range(0x8000, 0x100, slv_addr=2, name="regs")
    return m


class TestDecode:
    def test_decode_start_and_end(self):
        m = small_map()
        assert m.decode_span(0x0000, 1) == (0, 0)
        assert m.decode_span(0x0FFF, 1) == (0, 0xFFF)
        assert m.decode_span(0x2000, 1) == (1, 0)
        assert m.decode_span(0x3FFF, 1) == (1, 0x1FFF)

    def test_hole_raises(self):
        with pytest.raises(DecodeError):
            small_map().decode_span(0x1000, 1)
        with pytest.raises(DecodeError):
            small_map().decode_span(0x7FFF, 1)

    def test_above_everything_raises(self):
        with pytest.raises(DecodeError):
            small_map().decode_span(0x9000, 1)

    def test_lookup_returns_range(self):
        r = small_map().lookup(0x2004)
        assert r is not None and r.name == "ram"
        assert small_map().lookup(0x1234) is None


class TestSpanDecode:
    def test_span_inside_range(self):
        assert small_map().decode_span(0x2000, 64) == (1, 0)

    def test_span_straddling_raises(self):
        with pytest.raises(DecodeError):
            small_map().decode_span(0x0FFC, 8)

    def test_span_exact_fit(self):
        assert small_map().decode_span(0x8000, 0x100) == (2, 0)


class TestConstruction:
    def test_overlap_rejected(self):
        m = small_map()
        with pytest.raises(ValueError):
            m.add_range(0x2800, 0x100, slv_addr=5)

    def test_overlap_rejected_every_direction(self):
        """The bisect-neighbour check catches all overlap geometries:
        exact alias, strict containment, straddling both edges."""
        m = small_map()
        for base, size in [
            (0x2000, 0x2000),  # exact alias of ram
            (0x2100, 0x10),    # contained inside ram
            (0x1F00, 0x200),   # straddles ram's start
            (0x3F00, 0x200),   # straddles ram's end
            (0x0000, 0x10000), # swallows everything
        ]:
            with pytest.raises(ValueError):
                m.add_range(base, size, slv_addr=9)
        assert len(m) == 3  # nothing was inserted by the failed adds

    def test_adjacent_ok(self):
        m = small_map()
        m.add_range(0x1000, 0x1000, slv_addr=3)
        assert m.decode_span(0x1000, 1) == (3, 0)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            AddressRange(base=-1, size=4, slv_addr=0)
        with pytest.raises(ValueError):
            AddressRange(base=0, size=0, slv_addr=0)
        with pytest.raises(ValueError):
            AddressRange(base=0, size=4, slv_addr=-1)

    def test_targets_listing(self):
        assert small_map().targets() == [0, 1, 2]
        assert len(small_map()) == 3


@given(
    bases=st.lists(
        st.integers(min_value=0, max_value=50), min_size=1, max_size=8, unique=True
    ),
    probe=st.integers(min_value=0, max_value=60 * 0x100),
)
def test_property_decode_agrees_with_linear_scan(bases, probe):
    """bisect-based decode matches a brute-force scan."""
    m = AddressMap()
    ranges = []
    for i, block in enumerate(sorted(bases)):
        r = m.add_range(block * 0x100, 0x80, slv_addr=i)
        ranges.append(r)
    hit = next((r for r in ranges if r.contains(probe)), None)
    if hit is None:
        with pytest.raises(DecodeError):
            m.decode_span(probe, 1)
    else:
        assert m.decode_span(probe, 1) == (hit.slv_addr, probe - hit.base)
