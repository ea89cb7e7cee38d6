"""SoC address decoding: global byte address → (SlvAddr, offset).

Every initiator NIU holds (a copy of) the address map and stamps the
decoded ``SlvAddr`` into request packets; targets only ever see offsets
local to themselves.  Undecodable addresses produce a DECERR response at
the initiator NIU without ever entering the fabric — matching how real
NIUs implement default-slave behaviour.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple


class DecodeError(LookupError):
    """Address does not fall into any mapped range."""


@dataclass(frozen=True)
class AddressRange:
    """A half-open byte range ``[base, base + size)`` owned by one target."""

    base: int
    size: int
    slv_addr: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"range {self.name!r}: negative base")
        if self.size <= 0:
            raise ValueError(f"range {self.name!r}: size must be > 0")
        if self.slv_addr < 0:
            raise ValueError(f"range {self.name!r}: negative slv_addr")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def contains_span(self, address: int, span: int) -> bool:
        return self.base <= address and address + span <= self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base < other.end and other.base < self.end


class AddressMap:
    """Ordered, non-overlapping collection of :class:`AddressRange`."""

    def __init__(self, ranges: Optional[Iterable[AddressRange]] = None) -> None:
        self._ranges: List[AddressRange] = []
        self._bases: List[int] = []
        for r in ranges or []:
            self.add(r)

    def add(self, new: AddressRange) -> None:
        """Insert ``new``; raises :class:`ValueError` on any overlap.

        The map invariant (sorted by base, pairwise disjoint) means only
        the would-be neighbours can overlap a candidate, so validation is
        O(log n) instead of a full scan.
        """
        index = bisect.bisect(self._bases, new.base)
        neighbors = []
        if index > 0:
            neighbors.append(self._ranges[index - 1])
        if index < len(self._ranges):
            neighbors.append(self._ranges[index])
        for existing in neighbors:
            if existing.overlaps(new):
                raise ValueError(
                    f"range {new.name!r} [{new.base:#x}, {new.end:#x}) overlaps "
                    f"{existing.name!r} [{existing.base:#x}, {existing.end:#x})"
                )
        self._ranges.insert(index, new)
        self._bases.insert(index, new.base)

    def add_range(
        self, base: int, size: int, slv_addr: int, name: str = ""
    ) -> AddressRange:
        r = AddressRange(base=base, size=size, slv_addr=slv_addr, name=name)
        self.add(r)
        return r

    def lookup(self, address: int) -> Optional[AddressRange]:
        index = bisect.bisect(self._bases, address) - 1
        if index >= 0 and self._ranges[index].contains(address):
            return self._ranges[index]
        return None

    def decode_span(self, address: int, span: int) -> Tuple[int, int]:
        """Return ``(slv_addr, offset)`` for a global byte address whose
        whole ``span`` of bytes fits one range.

        Bursts that straddle two targets or run past a target's end are a
        socket-level error in every protocol we model, so the initiator
        NIU and the Fig-2 bus reject them here with DECERR.
        """
        r = self.lookup(address)
        if r is None or not r.contains_span(address, span):
            raise DecodeError(
                f"span [{address:#010x}, {address + span:#010x}) not mapped "
                f"to a single target"
            )
        return r.slv_addr, address - r.base

    def ranges(self) -> List[AddressRange]:
        return list(self._ranges)

    def targets(self) -> List[int]:
        """Sorted unique SlvAddr values in the map."""
        return sorted({r.slv_addr for r in self._ranges})

    def __len__(self) -> int:
        return len(self._ranges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{r.name or r.slv_addr}@[{r.base:#x},{r.end:#x})" for r in self._ranges
        )
        return f"<AddressMap {parts}>"
