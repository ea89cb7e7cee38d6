"""VC socket protocol models.

One module per socket family the paper names — AHB 2.0, AXI, OCP, the VCI
flavors (PVCI/BVCI/AVCI) and an example proprietary protocol.  Each module
provides:

- request/response record types using the protocol's native signal names;
- a *master* IP model (a :class:`~repro.sim.component.Component`) that
  converts abstract traffic intents into protocol-legal request streams,
  respecting that protocol's pipelining/ordering rules, and checks
  responses against the protocol's ordering model;
- its *native side* (a :class:`~repro.protocols.base.NativeSide`): the
  attachment's end of the socket, which decodes the request records into
  transactions and encodes the responses.  The master class names it.

So a family's wire format is written and read in one module.  What the
rest of the stack knows about the family — ordering model, NoC services,
default NIU tag policy, gate-model front end — is its one row in
:mod:`repro.core.protocols`, which a master's ``ordering_model`` reads
through its ``protocol_name``.

The protocol models are intentionally independent of the NoC: a socket
can be attached to the one initiator NIU (:mod:`repro.niu`) or to a bus
bridge (:mod:`repro.bus`), both serving it with its native side, which
is exactly the comparison in Figs 1/2.
"""

from repro.protocols.base import (
    MasterSocket,
    NativeSide,
    ProtocolError,
    ProtocolMaster,
    SlaveRequest,
    SlaveResponse,
    SlaveSocket,
)

__all__ = [
    "MasterSocket",
    "NativeSide",
    "ProtocolError",
    "ProtocolMaster",
    "SlaveRequest",
    "SlaveResponse",
    "SlaveSocket",
]
