"""The NIU state lookup table.

Paper §2: "add the state to the standard NIU state lookup tables (which
track for example that a Load request is waiting for a response)".  Each
entry records one outstanding transaction: which socket stream it belongs
to, the NoC tag and target it was sent with, its position in the stream's
issue order, and — once the response packet returns — its completion
status and payload, until the NIU can deliver it to the socket in stream
order.

The table is bounded (``capacity``): a full table back-pressures the
socket, which is exactly how a small NIU trades performance for gates
(benchmark E4 charges gates per entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.transaction import ResponseStatus, Transaction

StreamKey = Tuple[int, ...]


@dataclass
class StateEntry:
    txn: Transaction
    tag: int
    slv_addr: int
    offset: int
    stream: StreamKey
    seq: int  # global allocation order (per NIU)
    stream_seq: int  # order within the stream
    responded: bool = False
    status: ResponseStatus = ResponseStatus.OKAY
    payload: Optional[List[int]] = None

    @property
    def txn_id(self) -> int:
        return self.txn.txn_id


class StateTableFullError(RuntimeError):
    """Allocation attempted on a full table (caller must check first)."""


class StateTable:
    """Bounded outstanding-transaction table with stream-order queries.

    ``version`` counts the table's writes: :meth:`allocate`,
    :meth:`release` and :meth:`mark_responded` — the only three methods
    that change what a query can return — each bump it, so an answer
    derived from the table (a :meth:`TagPolicy.admit` refusal, say)
    holds while ``version`` does.  A checkpoint carries it with the
    entries and with every memo stamped with it.
    """

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"state table {name!r}: capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._entries: Dict[int, StateEntry] = {}  # txn_id -> entry
        self._seq = 0
        self._stream_seq: Dict[StreamKey, int] = {}
        self.total_allocated = 0
        self.high_watermark = 0
        # Entries with responded=True still in the table; lets the hot
        # per-cycle deliverable() query answer "nothing yet" in O(1).
        self._responded_count = 0
        # Live entries per stream (admission checks run per issue
        # attempt, so the population query must not scan the table).
        self._stream_counts: Dict[StreamKey, int] = {}
        self.version = 0

    # ------------------------------------------------------------------ #
    # allocation / release
    # ------------------------------------------------------------------ #
    def can_allocate(self) -> bool:
        return len(self._entries) < self.capacity

    def allocate(
        self,
        txn: Transaction,
        tag: int,
        slv_addr: int,
        offset: int,
        stream: StreamKey,
    ) -> StateEntry:
        if not self.can_allocate():
            raise StateTableFullError(
                f"state table {self.name!r} full ({self.capacity} entries)"
            )
        if txn.txn_id in self._entries:
            raise KeyError(f"{self.name}: txn {txn.txn_id} already tracked")
        stream_seq = self._stream_seq.get(stream, 0)
        self._stream_seq[stream] = stream_seq + 1
        entry = StateEntry(
            txn=txn,
            tag=tag,
            slv_addr=slv_addr,
            offset=offset,
            stream=stream,
            seq=self._seq,
            stream_seq=stream_seq,
        )
        self._seq += 1
        self._entries[txn.txn_id] = entry
        self._stream_counts[stream] = self._stream_counts.get(stream, 0) + 1
        self.total_allocated += 1
        self.high_watermark = max(self.high_watermark, len(self._entries))
        self.version += 1
        return entry

    def release(self, txn_id: int) -> StateEntry:
        try:
            entry = self._entries.pop(txn_id)
        except KeyError:
            raise KeyError(f"{self.name}: releasing unknown txn {txn_id}") from None
        if entry.responded:
            self._responded_count -= 1
        remaining = self._stream_counts[entry.stream] - 1
        if remaining:
            self._stream_counts[entry.stream] = remaining
        else:
            del self._stream_counts[entry.stream]
        self.version += 1
        return entry

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, txn_id: int) -> bool:
        return txn_id in self._entries

    def entry(self, txn_id: int) -> StateEntry:
        return self._entries[txn_id]

    def entries(self) -> List[StateEntry]:
        return sorted(self._entries.values(), key=lambda e: e.seq)

    def match_response(
        self, tag: int, slv_addr: int, txn_id_hint: int = -1
    ) -> StateEntry:
        """Find the entry a returning response packet belongs to.

        Fabric guarantee: packets between one (initiator, target) pair on
        one plane arrive in injection order, so the response with a given
        (tag, target) always belongs to the *oldest* un-responded entry
        with that tag and target.  The transported ``txn_id`` is checked
        as a simulation-level assertion on that guarantee.
        """
        candidates = [
            e
            for e in self._entries.values()
            if e.tag == tag and e.slv_addr == slv_addr and not e.responded
        ]
        if not candidates:
            raise KeyError(
                f"{self.name}: response (tag={tag}, slv={slv_addr}) matches "
                f"no outstanding entry"
            )
        entry = min(candidates, key=lambda e: e.seq)
        if txn_id_hint >= 0 and entry.txn_id != txn_id_hint:
            raise AssertionError(
                f"{self.name}: fabric ordering violated — response for txn "
                f"{txn_id_hint} arrived but oldest outstanding on "
                f"(tag={tag}, slv={slv_addr}) is txn {entry.txn_id}"
            )
        return entry

    def mark_responded(
        self,
        txn_id: int,
        status: ResponseStatus,
        payload: Optional[List[int]],
    ) -> StateEntry:
        entry = self._entries[txn_id]
        if entry.responded:
            raise KeyError(f"{self.name}: txn {txn_id} responded twice")
        entry.responded = True
        entry.status = status
        entry.payload = payload
        self._responded_count += 1
        self.version += 1
        return entry

    # ------------------------------------------------------------------ #
    # stream-order queries (reorder-buffer behaviour)
    # ------------------------------------------------------------------ #
    def deliverable(self) -> List[StateEntry]:
        """Responded entries that are the oldest of their stream.

        These may be handed to the socket without violating the stream's
        in-order rule; everything else waits in the table (the table *is*
        the reorder buffer).
        """
        if not self._responded_count:
            return []
        oldest: Dict[StreamKey, StateEntry] = {}
        for entry in self._entries.values():
            best = oldest.get(entry.stream)
            if best is None or entry.stream_seq < best.stream_seq:
                oldest[entry.stream] = entry
        return sorted(
            (e for e in oldest.values() if e.responded), key=lambda e: e.seq
        )

    def outstanding_targets(self, stream: StreamKey) -> List[int]:
        """Distinct targets with un-responded entries in a stream."""
        return sorted(
            {
                e.slv_addr
                for e in self._entries.values()
                if e.stream == stream and not e.responded
            }
        )

    def stream_population(self, stream: StreamKey) -> int:
        return self._stream_counts.get(stream, 0)
