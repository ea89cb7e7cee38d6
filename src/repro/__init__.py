"""repro — reproduction of "Design of a Virtual Component Neutral
Network-on-Chip Transaction Layer" (Philippe Martin, DATE 2005).

Public entry points:

- :class:`repro.soc.SocBuilder` / :func:`repro.bus.build_bus_soc` — build
  the Fig-1 (layered NoC) and Fig-2 (bridged bus) systems from the same
  declarative specs;
- :mod:`repro.core` — the transaction layer itself (packets, ordering
  models, NoC services);
- :mod:`repro.ip` — workload generators and memory targets;
- :mod:`repro.niu` — NIUs, tag policies and the gate-count model.

See PAPER.md for the source paper and ROADMAP.md for the architecture
snapshot and how to run the tests, examples and benches.
"""

__version__ = "0.1.0"

from repro.soc import InitiatorSpec, SocBuilder, TargetSpec

__all__ = ["InitiatorSpec", "SocBuilder", "TargetSpec", "__version__"]
