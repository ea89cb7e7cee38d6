"""Clock domains with integer frequency ratios.

The simulation kernel ticks at the fastest clock in the system.
:meth:`~repro.sim.component.Component.set_clock_domain` places a
registered component in a slower domain; both kernels (activity and
strict) then tick it only on that domain's edges, with kernel cycle
numbers.  This is what :class:`~repro.soc.builder.SocBuilder` uses for
its ``clock_domains=`` / per-spec ``region=`` knobs.

This models GALS-style NoCs where the switch fabric runs faster than
attached IP — a physical-layer concern that, per the paper, must not
leak upward.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClockDomain:
    """A named clock running at ``1/divisor`` of the kernel clock."""

    name: str
    divisor: int = 1
    phase: int = 0

    def __post_init__(self) -> None:
        if self.divisor < 1:
            raise ValueError(f"clock {self.name!r}: divisor must be >= 1")
        if not 0 <= self.phase < self.divisor:
            raise ValueError(f"clock {self.name!r}: phase out of range")

    def active(self, kernel_cycle: int) -> bool:
        """Does this domain have a clock edge at ``kernel_cycle``?"""
        return kernel_cycle % self.divisor == self.phase

    def next_edge(self, kernel_cycle: int) -> int:
        """First clock edge at or after ``kernel_cycle`` — what the
        event-wheel kernel aligns a component's next event to."""
        return kernel_cycle + (self.phase - kernel_cycle) % self.divisor


def make_clock_domain(name: str, value) -> ClockDomain:
    """Coerce a declarative clock-domain value into a :class:`ClockDomain`.

    Accepted forms (what ``SocBuilder(clock_domains={...})`` takes):
    an existing :class:`ClockDomain` (renamed to ``name`` if needed so
    the mapping key is authoritative), an ``int`` divisor, or a
    ``(divisor, phase)`` tuple.
    """
    if isinstance(value, ClockDomain):
        if value.name == name:
            return value
        return ClockDomain(name, value.divisor, value.phase)
    if isinstance(value, int):
        return ClockDomain(name, value)
    if isinstance(value, tuple) and len(value) == 2:
        return ClockDomain(name, value[0], value[1])
    raise ValueError(
        f"clock domain {name!r}: expected ClockDomain, divisor int or "
        f"(divisor, phase) tuple, got {value!r}"
    )
