"""Event tracing: what the fabric did, cycle by cycle.

Components log one :class:`TraceEvent` per notable step — a router's
``route`` of a packet head and ``lock_set`` / ``lock_clear`` of an
output port, an initiator NIU's ``rsp_accept`` — to the simulator's
:class:`Tracer`, which keeps them in arrival order.  :meth:`Tracer.dump`
renders the stream as text; the run fingerprint and the differential
tests compare that text.

A tracer is on or off for its whole life.  Off (the simulator's default)
it costs a caller one empty call per event: ``log`` is bound once, at
construction, to a no-op.  Only a caller that would build an expensive
detail dict reads :attr:`Tracer.enabled` first (the router's ``route``
event, once per packet head).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped event emitted by a component."""

    cycle: int
    source: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.cycle:>8}] {self.source:<24} {self.kind:<20} {extras}"


class Tracer:
    """Collects every logged :class:`TraceEvent` in :attr:`events`.

    ``enabled`` is fixed at construction.  ``log(cycle, source, kind,
    **detail)`` is an instance attribute bound then: the recorder when
    enabled, a no-op when not.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self.events: List[TraceEvent] = []
        self.log = self._log if enabled else self._log_noop

    @property
    def enabled(self) -> bool:
        return self._enabled

    def _log_noop(self, cycle: int, source: str, kind: str, **detail: Any) -> None:
        return None

    def _log(self, cycle: int, source: str, kind: str, **detail: Any) -> None:
        self.events.append(TraceEvent(cycle, source, kind, detail))

    def dump(self) -> str:
        return "\n".join(str(e) for e in self.events)
