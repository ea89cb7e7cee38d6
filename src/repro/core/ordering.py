"""Ordering models absorbed by the transaction layer.

Paper §3: AHB/PVCI/BVCI are *fully ordered* between requests and
responses; OCP is fully ordered *within a thread* but threads are
unordered against each other; AXI/AVCI attach *transaction IDs* and allow
out-of-order responses across IDs (ordered within an ID).  The Arteris
layer adapts to all three "using a careful assignment policy" of
SlvAddr/MstAddr/Tag.

This module defines the three models, the ordering constraint they impose
(:meth:`OrderingModel.must_order`), and :class:`OrderingChecker`, a
scoreboard that replays an observed (issue, completion) sequence and
reports violations.  Benchmarks E2 runs the same fabric under all three
models and asserts zero violations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sim.snapshot import Snapshottable


class OrderingModel(enum.Enum):
    """The three socket ordering disciplines the layer must absorb."""

    FULLY_ORDERED = "FULLY_ORDERED"  # AHB 2.0, PVCI, BVCI
    THREADED = "THREADED"  # OCP: ordered within ThreadID
    ID_BASED = "ID_BASED"  # AXI, AVCI: ordered within transaction ID

    def stream_key(self, thread: int, txn_tag: int) -> Tuple[int, ...]:
        """The key within which responses must preserve issue order.

        - fully ordered: every transaction shares one stream;
        - threaded: one stream per ThreadID;
        - ID-based: one stream per (channel, transaction ID).  AXI orders
          reads per ARID and writes per AWID but never reads against
          writes ("independent READ and WRITE channels, further obscuring
          ordering constraints", paper §3) — the AXI master model encodes
          the channel in ``thread`` (0 = read, 1 = write).
        """
        if self is OrderingModel.FULLY_ORDERED:
            return ()
        if self is OrderingModel.THREADED:
            return (thread,)
        return (thread, txn_tag)

    def must_order(
        self,
        first: Tuple[int, int],
        second: Tuple[int, int],
    ) -> bool:
        """Whether response(second) may not overtake response(first).

        Arguments are ``(thread, txn_tag)`` pairs of two transactions
        issued in that order by the same master.
        """
        return self.stream_key(*first) == self.stream_key(*second)


class OrderingViolation(AssertionError):
    """Raised (or collected) when a response overtakes one it must follow."""


@dataclass
class _IssueRecord:
    txn_id: int
    sequence: int
    thread: int
    txn_tag: int
    completed: bool = False


@dataclass
class OrderingChecker(Snapshottable):
    """Scoreboard validating observed completion order per master.

    Usage: call :meth:`issue` when the master hands a transaction to its
    NIU and :meth:`complete` when the response reaches the master.  Every
    completion is checked against all earlier *incomplete* issues in the
    same ordering stream; completing out of stream order is a violation.

    With ``strict=True`` violations raise immediately; otherwise they are
    collected in :attr:`violations` so a bench can count them.
    """

    model: OrderingModel
    master: str = ""
    strict: bool = True
    violations: List[str] = field(default_factory=list)
    _records: Dict[int, _IssueRecord] = field(default_factory=dict)
    # Open (incomplete) records bucketed by ordering stream, each bucket in
    # issue order.  A completion only ever needs to look at its own stream,
    # so the check is O(open-in-stream) instead of O(all issues ever) —
    # with thousands of completed transactions retained for post-run stats,
    # the full scan dominated saturated-workload profiles.
    _open_by_stream: Dict[Tuple[int, ...], Dict[int, _IssueRecord]] = field(
        default_factory=dict
    )
    _open_count: int = 0
    _sequence: int = 0

    # _open_by_stream buckets alias the _IssueRecord objects in _records;
    # the checkpoint layer's one pickle of the whole tree preserves that.
    _snapshot_fields = (
        "violations",
        "_records",
        "_open_by_stream",
        "_open_count",
        "_sequence",
    )

    def issue(self, txn_id: int, thread: int = 0, txn_tag: int = 0) -> None:
        if txn_id in self._records:
            raise KeyError(f"txn {txn_id} already issued on {self.master!r}")
        record = _IssueRecord(
            txn_id=txn_id,
            sequence=self._sequence,
            thread=thread,
            txn_tag=txn_tag,
        )
        self._records[txn_id] = record
        key = self.model.stream_key(thread, txn_tag)
        self._open_by_stream.setdefault(key, {})[txn_id] = record
        self._open_count += 1
        self._sequence += 1

    def complete(self, txn_id: int) -> None:
        record = self._records.get(txn_id)
        if record is None:
            raise KeyError(f"txn {txn_id} completing but never issued")
        if record.completed:
            raise KeyError(f"txn {txn_id} completed twice")
        key = self.model.stream_key(record.thread, record.txn_tag)
        stream = self._open_by_stream[key]
        # Buckets hold only incomplete issues in issue order, so everything
        # ahead of this record in its bucket is an overtaken transaction.
        for other in stream.values():
            if other.txn_id == txn_id:
                break
            message = (
                f"master {self.master!r} ({self.model.value}): response "
                f"for txn {txn_id} (seq {record.sequence}) overtook "
                f"txn {other.txn_id} (seq {other.sequence}) "
                f"in stream {key}"
            )
            if self.strict:
                raise OrderingViolation(message)
            self.violations.append(message)
        record.completed = True
        del stream[txn_id]
        if not stream:
            del self._open_by_stream[key]
        self._open_count -= 1

    @property
    def outstanding(self) -> int:
        return self._open_count

    @property
    def issued(self) -> int:
        return len(self._records)

    @property
    def completed_count(self) -> int:
        return len(self._records) - self._open_count

    def all_complete(self) -> bool:
        return self.outstanding == 0 and self.issued > 0

    def reset(self) -> None:
        self._records.clear()
        self._open_by_stream.clear()
        self._open_count = 0
        self._sequence = 0
        self.violations.clear()


def interleaving_allowed(
    model: OrderingModel,
    earlier: Tuple[int, int],
    later: Tuple[int, int],
) -> bool:
    """True if the later transaction's response may overtake the earlier's.

    Convenience inverse of :meth:`OrderingModel.must_order`, used by NIUs
    when deciding whether an incoming response can be forwarded or must be
    held in the reorder buffer.
    """
    return not model.must_order(earlier, later)


#: Map from socket protocol family name to its native ordering model.
#: NIUs consult this to choose a default field-assignment policy.
PROTOCOL_ORDERING: Dict[str, OrderingModel] = {
    "AHB": OrderingModel.FULLY_ORDERED,
    "PVCI": OrderingModel.FULLY_ORDERED,
    "BVCI": OrderingModel.FULLY_ORDERED,
    "OCP": OrderingModel.THREADED,
    "AXI": OrderingModel.ID_BASED,
    "AVCI": OrderingModel.ID_BASED,
    "PROPRIETARY": OrderingModel.FULLY_ORDERED,
}


def ordering_for_protocol(protocol: str) -> OrderingModel:
    """Native ordering model of a socket family (KeyError if unknown)."""
    try:
        return PROTOCOL_ORDERING[protocol.upper()]
    except KeyError:
        raise KeyError(
            f"unknown protocol family {protocol!r}; known: "
            f"{sorted(PROTOCOL_ORDERING)}"
        ) from None
