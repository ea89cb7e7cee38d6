"""The NoC physical layer.

"The physical layer defines how packets are physically transmitted …
independent from transaction and transport layers" (paper §1).  We model
the three physical concerns the paper names:

- **raw bandwidth** — :class:`~repro.phys.link.PhysicalLink` serializes
  flits into *phits* of configurable width, so halving the wire count
  doubles cycles-per-flit without any transport/transaction change;
- **matching clocks** — :mod:`repro.phys.clocking` provides clock domains
  with integer ratios, and a link whose two ends sit in different
  domains passes every flit through its synchronizer (the classic
  two-flop crossing latency);
- **off-chip communication** — a narrow, high-latency ``PhysicalLink``
  configuration (see the E7 bench).
"""

from repro.phys.clocking import ClockDomain, make_clock_domain
from repro.phys.link import LinkSpec, PhysicalLink, phits_per_flit

__all__ = [
    "ClockDomain",
    "LinkSpec",
    "PhysicalLink",
    "make_clock_domain",
    "phits_per_flit",
]
