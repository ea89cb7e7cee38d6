"""Quality-of-service arbitration at switch output ports.

"The transport layer focuses on quality of service and scalability"
(paper §1).  QoS here is the output-port arbitration policy: when several
input ports want the same output, who goes first.  Policies only ever see
the transport-visible header fields (priority, age) — never transaction
content — preserving layer separation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


@dataclass(frozen=True, slots=True)
class Candidate:
    """One input port competing for an output port this cycle."""

    port: str
    priority: int
    age: int  # cycles since the head flit reached the front


class Arbiter:
    """Base arbitration policy; subclasses implement :meth:`pick`."""

    name = "base"

    def __init__(self) -> None:
        self._grant_seq = 0
        self._grants: Dict[tuple, int] = {}  # (output, port) -> grant seq

    def pick(self, output: str, candidates: Sequence[Candidate]) -> Candidate:
        raise NotImplementedError

    def note_sole_grant(self, output: str, port: str) -> None:
        """Record an uncontested grant without building a candidate.

        Byte-identical to ``pick(output, [the_sole_candidate])`` for every
        policy here (each reduces to the shared round-robin over its top
        set, and a singleton always wins, so the only state change is
        the grant recency update); routers rely on it to skip candidate
        construction for uncontested outputs.  The rotation state must
        see the grant or a later contested tie would break differently.
        """
        self._grant_seq += 1
        self._grants[(output, port)] = self._grant_seq

    # ------------------------------------------------------------------ #
    # round-robin helper shared by subclasses
    # ------------------------------------------------------------------ #
    def _round_robin(
        self, output: str, candidates: Sequence[Candidate]
    ) -> Candidate:
        """Least-recently-granted rotation, per output port.

        :class:`PriorityArbiter`/:class:`AgeArbiter` delegate here with a
        *filtered subset* of the contenders (the priority/age winners),
        so the rotation state must stay fair across varying candidate
        sets.  The old pointer scheme ("first port after the last
        winner") could starve a port forever when contests alternated
        between subsets on either side of it; granting the candidate
        whose last win is oldest (never-granted first, earliest list
        position as the tie-break — callers build candidate lists in
        canonical port order, so ties never fall back to lexicographic
        port-string comparison) serves every persistent contender within
        one full rotation regardless of how the subsets are sliced.
        """
        grants = self._grants
        __, winner = min(
            enumerate(candidates),
            key=lambda item: (grants.get((output, item[1].port), -1), item[0]),
        )
        self._grant_seq += 1
        grants[(output, winner.port)] = self._grant_seq
        return winner


class RoundRobinArbiter(Arbiter):
    """Fair rotation among requesting inputs; ignores priority."""

    name = "round-robin"

    def pick(self, output: str, candidates: Sequence[Candidate]) -> Candidate:
        if not candidates:
            raise ValueError("pick() with no candidates")
        return self._round_robin(output, candidates)


class PriorityArbiter(Arbiter):
    """Strict priority (highest packet priority first), RR tie-break.

    This is the paper's QoS knob: latency-critical flows get a higher
    packet priority and overtake best-effort traffic at every switch.
    """

    name = "priority"

    def pick(self, output: str, candidates: Sequence[Candidate]) -> Candidate:
        if not candidates:
            raise ValueError("pick() with no candidates")
        best = max(c.priority for c in candidates)
        top = [c for c in candidates if c.priority == best]
        return self._round_robin(output, top)


class AgeArbiter(Arbiter):
    """Oldest-first arbitration — bounds worst-case waiting time."""

    name = "age"

    def pick(self, output: str, candidates: Sequence[Candidate]) -> Candidate:
        if not candidates:
            raise ValueError("pick() with no candidates")
        oldest = max(c.age for c in candidates)
        top = [c for c in candidates if c.age == oldest]
        return self._round_robin(output, top)


ARBITERS = {
    cls.name: cls for cls in (RoundRobinArbiter, PriorityArbiter, AgeArbiter)
}


def make_arbiter(name: str) -> Arbiter:
    try:
        return ARBITERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown arbiter {name!r}; known: {sorted(ARBITERS)}"
        ) from None
