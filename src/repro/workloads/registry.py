"""The scenario registry: declarative workload lookup by name.

A *scenario* is any object (typically a module) exposing:

- ``build(**params)`` — construct and return a ready-to-run
  :class:`~repro.soc.builder.NocSoc` (by convention accepting at least
  ``strict_kernel=``);
- ``describe()`` — a one-line human description.

Bench workloads, examples and tests resolve scenarios through
:func:`get` instead of hand-wiring sources, so "run the DMA chain on the
strict kernel" is one registry call regardless of how the scenario wires
its engines.  The built-in scenarios under
:mod:`repro.workloads.scenarios` self-register on package import.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "UnknownScenarioError",
    "available",
    "describe",
    "get",
    "register",
]


class UnknownScenarioError(LookupError):
    """Asked the registry for a scenario name nobody registered."""


_SCENARIOS: Dict[str, object] = {}


def register(name: str, scenario) -> None:
    """Register ``scenario`` under ``name``.

    Duplicate names are a wiring bug and raise ``ValueError``; a scenario
    missing the ``build``/``describe`` contract is rejected immediately
    rather than failing at first use.
    """
    if name in _SCENARIOS:
        raise ValueError(f"scenario {name!r} is already registered")
    for attr in ("build", "describe"):
        if not callable(getattr(scenario, attr, None)):
            raise ValueError(
                f"scenario {name!r} must expose a callable {attr}()"
            )
    _SCENARIOS[name] = scenario


def get(name: str):
    """Look up a registered scenario, raising the named error with the
    full menu when the name is unknown."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; available: {list(available())}"
        ) from None


def available() -> Tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


def describe(name: str) -> str:
    """Convenience: the scenario's one-line description."""
    return get(name).describe()
