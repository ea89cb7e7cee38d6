"""Clock domains with integer frequency ratios.

The simulation kernel ticks at the fastest clock in the system.
:meth:`~repro.sim.component.Component.set_clock_domain` places a
registered component in a slower domain; both kernels (activity and
strict) then tick it only on that domain's edges, with kernel cycle
numbers.  This is what :class:`~repro.soc.builder.SocBuilder` uses for
its ``clock_domains=`` / per-spec ``region=`` knobs.

A :class:`ClockDomain` is a build-time record: a name, a divisor and a
phase, validated once.  Nothing asks it about edges while the simulation
runs — the kernel and the physical links copy its divisor and phase into
plain integers and test ``cycle % divisor == phase`` themselves.

This models GALS-style NoCs where the switch fabric runs faster than
attached IP — a physical-layer concern that, per the paper, must not
leak upward.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClockDomain:
    """A named clock running at ``1/divisor`` of the kernel clock, with
    edges on the kernel cycles where ``cycle % divisor == phase``."""

    name: str
    divisor: int = 1
    phase: int = 0

    def __post_init__(self) -> None:
        if self.divisor < 1:
            raise ValueError(f"clock {self.name!r}: divisor must be >= 1")
        if not 0 <= self.phase < self.divisor:
            raise ValueError(f"clock {self.name!r}: phase out of range")


def make_clock_domain(name: str, value) -> ClockDomain:
    """The :class:`ClockDomain` a ``SocBuilder(clock_domains={...})``
    value declares: an ``int`` divisor or a ``(divisor, phase)`` tuple.
    """
    if isinstance(value, int):
        return ClockDomain(name, value)
    if isinstance(value, tuple) and len(value) == 2:
        return ClockDomain(name, value[0], value[1])
    raise ValueError(
        f"clock domain {name!r}: expected a divisor int or a "
        f"(divisor, phase) tuple, got {value!r}"
    )
