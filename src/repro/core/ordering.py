"""Ordering models absorbed by the transaction layer.

Paper §3: AHB/PVCI/BVCI are *fully ordered* between requests and
responses; OCP is fully ordered *within a thread* but threads are
unordered against each other; AXI/AVCI attach *transaction IDs* and allow
out-of-order responses across IDs (ordered within an ID).  The Arteris
layer adapts to all three "using a careful assignment policy" of
SlvAddr/MstAddr/Tag.

This module defines the three models, the stream within which each keeps
issue order (:meth:`OrderingModel.stream_key`), and :class:`OrderingChecker`, a
scoreboard that replays an observed (issue, completion) sequence and
reports violations.  Benchmarks E2 runs the same fabric under all three
models and asserts zero violations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


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


class OrderingViolation(AssertionError):
    """Raised (or collected) when a response overtakes one it must follow."""


@dataclass
class _IssueRecord:
    txn_id: int
    sequence: int
    thread: int
    txn_tag: int


@dataclass
class OrderingChecker:
    """Scoreboard validating observed completion order per master.

    Usage: call :meth:`issue` when the master hands a transaction to its
    NIU and :meth:`complete` when the response reaches the master.  Every
    completion is checked against all earlier *incomplete* issues in the
    same ordering stream; completing out of stream order is a violation.

    Only open transactions are held: a record is dropped when its
    transaction completes, so a long run pays for what is in flight, not
    for everything it ever issued.  An id is therefore checked against
    the open ones only; a master's ids come from its SoC's stream (or,
    in a sharded build, its source's own) and are never handed out
    twice.

    With ``strict=True`` violations raise immediately; otherwise they are
    collected in :attr:`violations` so a bench can count them.
    """

    model: OrderingModel
    master: str = ""
    strict: bool = True
    violations: List[str] = field(default_factory=list)
    # Open (incomplete) records by txn id.
    _records: Dict[int, _IssueRecord] = field(default_factory=dict)
    # The same records bucketed by ordering stream, each bucket in issue
    # order.  A completion only ever needs to look at its own stream, so
    # the check is O(open-in-stream).
    _open_by_stream: Dict[Tuple[int, ...], Dict[int, _IssueRecord]] = field(
        default_factory=dict
    )
    _issued: int = 0

    # _open_by_stream buckets alias the _IssueRecord objects in _records;
    # a checkpoint's one pickle keeps them one object each.
    def issue(self, txn_id: int, thread: int = 0, txn_tag: int = 0) -> None:
        if txn_id in self._records:
            raise KeyError(f"txn {txn_id} already open on {self.master!r}")
        record = _IssueRecord(
            txn_id=txn_id,
            sequence=self._issued,
            thread=thread,
            txn_tag=txn_tag,
        )
        self._records[txn_id] = record
        key = self.model.stream_key(thread, txn_tag)
        self._open_by_stream.setdefault(key, {})[txn_id] = record
        self._issued += 1

    def complete(self, txn_id: int) -> None:
        record = self._records.get(txn_id)
        if record is None:
            raise KeyError(
                f"txn {txn_id} completing but not open on {self.master!r} "
                f"(never issued, or completed already)"
            )
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
        del self._records[txn_id]
        del stream[txn_id]
        if not stream:
            del self._open_by_stream[key]

    @property
    def outstanding(self) -> int:
        return len(self._records)

    @property
    def issued(self) -> int:
        return self._issued
