"""Network Interface Units.

"A Network Interface Unit (NIU) is responsible for converting the foreign
IP protocol to the NoC transaction layer" (paper §1).  One initiator NIU
engine (master IP → packets) serves every socket family, reading the
socket with the family's native side from :mod:`repro.protocols`, and
one target NIU (packets → target IP) serves every target.  The pieces
the paper names explicitly are first-class here:

- :mod:`repro.niu.state_table` — "the standard NIU state lookup tables
  (which track for example that a Load request is waiting for a
  response)";
- :mod:`repro.niu.tag_policy` — "a careful assignment policy" of the
  SlvAddr/MstAddr/Tag fields that absorbs all three ordering models and
  scales gate count with the outstanding-transaction budget;
- :mod:`repro.niu.gate_count` — the analytic area model behind the
  paper's "low NIU gate count" and scaling claims (benchmark E4).
"""

from repro.niu.base import InitiatorNiu, TargetNiu
from repro.niu.gate_count import GateReport, niu_gate_count
from repro.niu.state_table import StateEntry, StateTable
from repro.niu.tag_policy import TagPolicy

__all__ = [
    "GateReport",
    "InitiatorNiu",
    "StateEntry",
    "StateTable",
    "TagPolicy",
    "TargetNiu",
    "niu_gate_count",
]
