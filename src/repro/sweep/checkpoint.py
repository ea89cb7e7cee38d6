"""Freeze/thaw a running SoC as a self-contained checkpoint.

``NocSoc.snapshot()`` returns a *live-reference* state tree — fast to
build, but aliased into the running system.  :meth:`Checkpoint.capture`
detaches it with one :func:`pickle.dumps` of the whole tree: one memo,
so every cross-object alias inside it (a router's cached flit that is
also a queue's front flit, a state-table entry aliased by a peek cache)
stays one object on the other side — and whatever a class lists in
``_snapshot_fields`` must pickle.  The checkpoint *is* those bytes;
:meth:`Checkpoint.restore_into` unpickles a private tree per restore, so
one checkpoint seeds any number of what-if runs with no defensive copy.

Serialized, the payload follows a versioned header (magic, version,
cycle, payload length); :class:`CheckpointFormatError` names format
mismatches instead of letting unpickling fail obscurely.  It is still
a pickle: load only checkpoints this program wrote.
"""

from __future__ import annotations

import pickle
import struct

from repro.sim.snapshot import SnapshotError

#: Bump when the on-disk envelope (not the state tree) changes shape.
FORMAT_VERSION = 2

_MAGIC = b"repro-ckpt"
#: magic, format version, cycle, payload length
_HEADER = struct.Struct(f">{len(_MAGIC)}sBQQ")
_UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError)


class CheckpointFormatError(RuntimeError):
    """Bytes that are not a checkpoint, or one from another format era."""


def _first_unpicklable(state: dict) -> str:
    """Blame the first envelope of ``state["sim"]`` that fails to pickle alone."""
    sim = state["sim"]["state"]
    for kind in ("component", "queue"):
        for name, envelope in sim[kind + "s"].items():
            try:
                pickle.dumps(envelope, pickle.HIGHEST_PROTOCOL)
            except _UNPICKLABLE:
                return f"captured state of {kind} {name!r} does not pickle"
    return "captured state outside components and queues does not pickle"


class Checkpoint:
    """A detached, reusable snapshot of a :class:`NocSoc` at one cycle."""

    def __init__(self, payload: bytes, cycle: int) -> None:
        self._payload = payload
        self._cycle = cycle

    # ------------------------------------------------------------------ #
    # capture / restore
    # ------------------------------------------------------------------ #
    @classmethod
    def capture(cls, soc) -> "Checkpoint":
        """Snapshot ``soc`` right now (one pickle of the whole tree)."""
        state = soc.snapshot()
        try:
            payload = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
        except _UNPICKLABLE as exc:
            raise SnapshotError(f"{_first_unpicklable(state)}: {exc}") from exc
        return cls(payload, state["cycle"])

    def restore_into(self, soc) -> None:
        """Load this checkpoint into a congruently built SoC.

        Each call unpickles a tree of its own, so the checkpoint stays
        pristine and may be restored again (the fork sweep relies on this).
        """
        try:
            state = pickle.loads(self._payload)
        except Exception as exc:  # a corrupt pickle raises nearly anything
            raise CheckpointFormatError(f"payload does not unpickle: {exc!r}") from exc
        if not isinstance(state, dict) or state.get("cycle") != self._cycle:
            raise CheckpointFormatError(f"payload is no cycle-{self._cycle} state tree")
        soc.restore(state)

    @property
    def cycle(self) -> int:
        """The simulator cycle at which the checkpoint was taken."""
        return self._cycle

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        size = len(self._payload)
        return _HEADER.pack(_MAGIC, FORMAT_VERSION, self._cycle, size) + self._payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        """Parse the header; nothing is unpickled before a restore."""
        if len(data) < _HEADER.size or data[: len(_MAGIC)] != _MAGIC:
            raise CheckpointFormatError("not a checkpoint (bad magic or short header)")
        _, version, cycle, length = _HEADER.unpack_from(data)
        if version != FORMAT_VERSION:
            raise CheckpointFormatError(f"format version {version} != {FORMAT_VERSION}")
        if len(data) != _HEADER.size + length:
            raise CheckpointFormatError(
                f"checkpoint is {len(data)} bytes, header says {_HEADER.size + length}"
            )
        return cls(data[_HEADER.size :], cycle)
