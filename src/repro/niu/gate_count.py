"""Analytic NIU gate-count model (benchmark E4).

The paper claims the field-assignment policy lets NIUs "scal[e] their
gate count to their expected performance within the system".  This model
makes that scaling measurable.  It charges standard-cell-heuristic gate
counts for each structure a NIU configuration instantiates:

- protocol front-end FSM + channel registers (per-family constants, read
  from the family's row in :mod:`repro.core.protocols`);
- the state lookup table: entries × entry-bits, flop-based;
- response-matching CAM over the state table (tag+target compare);
- the reorder buffer when the policy allows multiple outstanding targets
  per stream (data-width dependent);
- packet build/parse datapath (header width dependent);
- optional service state: exclusive monitor reservations, lock manager.

Absolute numbers are heuristic (flop ≈ 6 NAND2-equivalents, CAM bit ≈ 10,
SRAM-as-flops for small tables); the experiment's claim is about the
*shape*: linear growth in outstanding transactions, protocol-dependent
offsets, and a multi-target surcharge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.packet import PacketFormat
from repro.core.protocols import family
from repro.niu.tag_policy import TagPolicy

# Gate-equivalents per primitive (NAND2-equivalent heuristics).
GATES_PER_FLOP = 6.0
GATES_PER_CAM_BIT = 10.0
GATES_PER_MUX_BIT = 3.0
GATES_PER_COMPARATOR_BIT = 4.0

@dataclass
class GateReport:
    """Gate-count breakdown for one NIU configuration."""

    protocol: str
    total: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)

    def add(self, item: str, gates: float) -> None:
        self.breakdown[item] = self.breakdown.get(item, 0.0) + gates
        self.total += gates

    def describe(self) -> str:
        lines = [f"{self.protocol} NIU: {self.total:,.0f} gates"]
        for item, gates in sorted(self.breakdown.items()):
            lines.append(f"  {item:<24} {gates:>10,.0f}")
        return "\n".join(lines)


def state_entry_bits(fmt: PacketFormat, data_beats: int = 0) -> int:
    """Bits stored per state-table entry.

    Tag + target + opcode + stream key + sequence + status, plus payload
    beats when the entry doubles as a reorder-buffer slot.
    """
    control = (
        fmt.tag_bits
        + fmt.slv_addr_bits
        + 3  # opcode
        + 8  # stream key (thread/ID snapshot)
        + 8  # stream sequence
        + 2  # status
        + 2  # bookkeeping flags
    )
    return control + data_beats * 32


def niu_gate_count(
    protocol: str,
    policy: TagPolicy,
    fmt: PacketFormat,
    reorder_data_beats: int = 4,
    exclusive_monitor_entries: int = 0,
    lock_manager: bool = False,
) -> GateReport:
    """Gate count for one initiator-NIU configuration.

    ``reorder_data_beats`` is the response payload depth a reorder slot
    must hold (the NIU cannot hand a reordered read to the socket until
    it has buffered its data).
    """
    row = family(protocol)
    report = GateReport(protocol=row.name)

    # 1. Protocol front end.
    report.add("frontend_fsm", row.fsm_gates)
    report.add("channel_regs", row.channel_bits * GATES_PER_FLOP)

    # 2. State lookup table (control bits only).
    control_bits = state_entry_bits(fmt, data_beats=0)
    report.add(
        "state_table",
        policy.max_outstanding * control_bits * GATES_PER_FLOP,
    )

    # 3. Response-match CAM: every entry compares (tag, slv_addr).
    cam_bits = fmt.tag_bits + fmt.slv_addr_bits
    report.add(
        "match_cam",
        policy.max_outstanding * cam_bits * GATES_PER_CAM_BIT,
    )

    # 4. Reorder buffer (multi-target streams only).
    if policy.reorder_entries:
        report.add(
            "reorder_buffer",
            policy.reorder_entries
            * reorder_data_beats
            * 32
            * GATES_PER_FLOP,
        )

    # 5. Packet build/parse datapath.
    header_bits = fmt.header_bits()
    report.add("packet_datapath", header_bits * (GATES_PER_MUX_BIT * 4))

    # 6. Optional NoC-service state.
    _add_service_state(report, fmt, exclusive_monitor_entries, lock_manager)
    return report


def _add_service_state(
    report: GateReport,
    fmt: PacketFormat,
    exclusive_monitor_entries: int,
    lock_manager: bool,
) -> None:
    """Exclusive-monitor reservations and the lock manager, when present."""
    if exclusive_monitor_entries:
        entry_bits = fmt.mst_addr_bits + 32 + 6  # initiator + addr + span
        report.add(
            "exclusive_monitor",
            exclusive_monitor_entries
            * entry_bits
            * (GATES_PER_FLOP + GATES_PER_COMPARATOR_BIT),
        )
    if lock_manager:
        report.add(
            "lock_manager",
            (fmt.mst_addr_bits + 4) * GATES_PER_FLOP + 200.0,
        )


def bridge_gate_count(
    protocol: str,
    reference_protocol: str = "AHB",
    buffer_beats: int = 8,
) -> GateReport:
    """Gate count of a Fig-2 style bridge (socket → bus reference socket).

    A bridge needs *two* protocol front-ends plus conversion buffering —
    which is why per-socket bridges cost more area than per-socket NIUs
    sharing one uniform packet datapath (claim C1).
    """
    socket_row, bus_row = family(protocol), family(reference_protocol)
    report = GateReport(protocol=f"{socket_row.name}->{reference_protocol} bridge")
    for side, row in (("socket_side", socket_row), ("bus_side", bus_row)):
        report.add(f"{side}_fsm", row.fsm_gates)
        report.add(f"{side}_regs", row.channel_bits * GATES_PER_FLOP)
    report.add(
        "conversion_buffer", buffer_beats * 32 * GATES_PER_FLOP
    )
    report.add("burst_resegmenter", 700.0)
    report.add("ordering_serializer", 500.0)
    return report
