"""SlvAddr/MstAddr/Tag assignment policy.

Paper §3: "The ordering model adapts to the fully-ordered AHB, the
multi-threaded OCP and the ID-based AXI ordering models using a careful
assignment policy of these fields from the OCP or AXI ones such as
ThreadID and TID.  Further, this policy is flexible and allows NIUs to
support one or many simultaneously outstanding transactions and/or
targets, scaling their gate count to their expected performance."

:class:`TagPolicy` is that policy.  Its knobs:

- ``max_outstanding`` — total state-table entries (gates!);
- ``per_stream_outstanding`` — pipelining depth within one ordering
  stream (1 = strictly serial, AHB-minimal);
- ``multi_target`` — whether one stream may have transactions in flight
  to *several* targets at once.  If False the NIU stalls on a target
  switch (cheap, no reordering possible); if True the state table doubles
  as a reorder buffer (more gates, more throughput) because responses
  from different targets can return out of order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ordering import OrderingModel
from repro.core.protocols import family
from repro.core.transaction import Transaction
from repro.niu.state_table import StateTable, StreamKey


@dataclass(frozen=True)
class TagPolicy:
    """One NIU's field-assignment policy."""

    ordering: OrderingModel
    tag_bits: int = 4
    max_outstanding: int = 8
    per_stream_outstanding: int = 4
    multi_target: bool = True

    def __post_init__(self) -> None:
        if self.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        if self.per_stream_outstanding < 1:
            raise ValueError("per_stream_outstanding must be >= 1")
        if self.tag_bits < 1:
            raise ValueError("tag_bits must be >= 1")

    # ------------------------------------------------------------------ #
    # field assignment
    # ------------------------------------------------------------------ #
    def stream_of(self, txn: Transaction) -> StreamKey:
        """The ordering stream a transaction belongs to."""
        return self.ordering.stream_key(txn.thread, txn.txn_tag)

    def tag_for(self, txn: Transaction) -> int:
        """The NoC ``Tag`` carried in packets for this transaction.

        - fully ordered sockets: constant 0 (one stream, minimal state);
        - threaded sockets: the ThreadID, folded into the tag space;
        - ID-based sockets: the transaction ID, folded likewise.

        Folding (modulo) may merge streams onto one tag; correctness is
        unaffected because response matching uses (tag, target) FIFO
        order and delivery order is enforced per *true* stream by the
        state table.
        """
        space = 1 << self.tag_bits
        if self.ordering is OrderingModel.FULLY_ORDERED:
            return 0
        if self.ordering is OrderingModel.THREADED:
            return txn.thread % space
        return txn.txn_tag % space

    # ------------------------------------------------------------------ #
    # admission control
    # ------------------------------------------------------------------ #
    def admit(
        self, txn: Transaction, slv_addr: int, table: StateTable
    ) -> bool:
        """May this transaction be issued into the fabric now?"""
        if not table.can_allocate():
            return False
        stream = self.stream_of(txn)
        if table.stream_population(stream) >= self.per_stream_outstanding:
            return False
        if not self.multi_target:
            targets = table.outstanding_targets(stream)
            if targets and targets != [slv_addr]:
                return False  # stall until the previous target drains
        return True

    # ------------------------------------------------------------------ #
    # gate-model hooks
    # ------------------------------------------------------------------ #
    @property
    def reorder_entries(self) -> int:
        """Reorder-buffer entries charged by the gate model."""
        return self.max_outstanding if self.multi_target else 0

    def describe(self) -> str:
        return (
            f"TagPolicy({self.ordering.value}, tags=2^{self.tag_bits}, "
            f"outstanding={self.max_outstanding}, "
            f"per_stream={self.per_stream_outstanding}, "
            f"multi_target={self.multi_target})"
        )


def default_policy(protocol: str) -> TagPolicy:
    """The initiator NIU's default policy for a socket family: its row."""
    row = family(protocol)
    return TagPolicy(
        ordering=row.ordering,
        tag_bits=row.tag_bits,
        max_outstanding=row.max_outstanding,
        per_stream_outstanding=row.per_stream_outstanding,
        multi_target=row.multi_target,
    )
