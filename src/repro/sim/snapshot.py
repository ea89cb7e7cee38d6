"""Uniform state capture: the :class:`Snapshottable` protocol.

Every stateful class in the simulator implements one small contract:

- ``snapshot() -> dict`` — a versioned envelope around the object's
  runtime-mutable state.  The returned tree may (and does) reference
  *live* objects — flits, transactions, packets — without copying them:
  :class:`repro.sweep.Checkpoint` detaches it with **one**
  ``pickle.dumps`` of the whole tree, whose single memo preserves
  cross-object aliasing (the same flit visible from a queue and from a
  router's allocation-failure cache, say) — so everything captured must
  pickle.  Copying per object would silently break those identities.
- ``restore(envelope)`` — install a state tree previously produced by
  :meth:`snapshot` on a *congruently built* object (same builder, same
  config).  Restore assumes exclusive ownership of the tree it is
  handed; a reusable checkpoint keeps the pickle and unpickles a fresh
  tree per restore.

Wiring — queue waiter registrations, routing tables, port maps, clock
domains — is deliberately **not** part of a snapshot: it is a pure
function of the build, and restore always targets a fresh congruent
build.  Only what mutates as the simulation runs is captured.

Versioning: each class carries a ``snapshot_version`` class attribute,
stamped into the envelope under ``"__v__"`` and checked on restore
(:class:`SnapshotVersionError`), so a checkpoint written by an older
layout of a class fails loudly instead of restoring garbage.

The default :meth:`Snapshottable._snapshot_state` /
:meth:`Snapshottable._restore_state` pair is declarative: a class lists
its runtime-mutable attributes in ``_snapshot_fields`` and the base
implementation shallow-copies containers on capture and restores them
**in place** (never rebinding a list/dict/set the live object
holds — other objects may legitimately cache references to those
containers).  ``random.Random`` attributes are captured as
``getstate()`` tuples and restored with ``setstate`` so replayed draws
are exact.  Classes with derived state or child objects override the
hooks and call ``super()``.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Tuple


class SnapshotError(RuntimeError):
    """A snapshot could not be produced or restored."""


class SnapshotVersionError(SnapshotError):
    """Envelope version does not match the class's ``snapshot_version``."""


class SnapshotMismatchError(SnapshotError):
    """A state tree does not fit the object it is being restored onto.

    Raised when restore targets a build that is not congruent with the
    one the snapshot was taken from (unknown component/queue names,
    missing entries) — continuing would silently desynchronize.
    """


#: Marker wrapping a ``random.Random.getstate()`` tuple inside a state
#: tree, so restore knows to ``setstate`` instead of rebinding.
_RNG_TAG = "__rng_state__"


def _capture(value: Any) -> Any:
    """Capture one attribute value into a state tree.

    Containers are shallow-copied so the tree's *shape* is stable even
    if the live object keeps mutating; the items themselves stay live
    references (see module docstring).  RNGs become state tuples.
    """
    if isinstance(value, list):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, set):
        return set(value)
    if isinstance(value, random.Random):
        return (_RNG_TAG, value.getstate())
    return value


def _restore_field(obj: Any, name: str, saved: Any) -> None:
    """Install one captured value, in place where the live attribute is
    a container (never rebind — see module docstring)."""
    current = getattr(obj, name)
    if isinstance(current, random.Random):
        if not (isinstance(saved, tuple) and saved and saved[0] == _RNG_TAG):
            raise SnapshotMismatchError(
                f"{type(obj).__name__}.{name}: expected a captured RNG "
                f"state, got {type(saved).__name__}"
            )
        current.setstate(saved[1])
    elif isinstance(current, list):
        current[:] = saved
    elif isinstance(current, dict):
        current.clear()
        current.update(saved)
    elif isinstance(current, set):
        current.clear()
        current.update(saved)
    else:
        setattr(obj, name, saved)


class Snapshottable:
    """Mixin implementing the uniform state-capture protocol.

    Slot-less (``__slots__ = ()``) so slotted classes can inherit it
    without growing a ``__dict__``.
    """

    __slots__ = ()

    #: Bump when a class's captured layout changes incompatibly.
    snapshot_version = 1

    #: Runtime-mutable attribute names the default hooks capture/restore.
    _snapshot_fields: Tuple[str, ...] = ()

    def snapshot(self) -> Dict[str, Any]:
        """Versioned envelope around this object's mutable state."""
        return {
            "__v__": type(self).snapshot_version,
            "__cls__": type(self).__name__,
            "state": self._snapshot_state(),
        }

    def restore(self, envelope: Dict[str, Any]) -> None:
        """Install a state tree captured from a congruent object."""
        try:
            version = envelope["__v__"]
            state = envelope["state"]
        except (KeyError, TypeError):
            raise SnapshotMismatchError(
                f"{type(self).__name__}: not a snapshot envelope: "
                f"{type(envelope).__name__}"
            ) from None
        expected = type(self).snapshot_version
        if version != expected:
            raise SnapshotVersionError(
                f"{type(self).__name__}: snapshot version {version} does "
                f"not match this build's snapshot_version {expected} "
                f"(envelope from class {envelope.get('__cls__')!r})"
            )
        self._restore_state(state)

    # ------------------------------------------------------------------ #
    # default declarative hooks
    # ------------------------------------------------------------------ #
    def _snapshot_state(self) -> Dict[str, Any]:
        return {
            name: _capture(getattr(self, name))
            for name in self._snapshot_fields
        }

    def _restore_state(self, state: Dict[str, Any]) -> None:
        for name in self._snapshot_fields:
            try:
                saved = state[name]
            except KeyError:
                raise SnapshotMismatchError(
                    f"{type(self).__name__}: snapshot is missing field "
                    f"{name!r} — taken from an incompatible build?"
                ) from None
            _restore_field(self, name, saved)


class SerialCounter(Snapshottable):
    """A snapshotable drop-in for ``itertools.count()``.

    The global transaction/packet id streams must be part of a
    checkpoint (a restored run must hand out exactly the ids the
    uninterrupted run would), and ``itertools.count`` cannot be queried
    — this can.
    """

    __slots__ = ("_next_value",)

    _snapshot_fields = ("_next_value",)

    def __init__(self, start: int = 0) -> None:
        self._next_value = start

    def __iter__(self) -> "SerialCounter":
        return self

    def __next__(self) -> int:
        value = self._next_value
        self._next_value = value + 1
        return value

    def peek(self) -> int:
        """The id the next ``next()`` call will return."""
        return self._next_value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SerialCounter({self._next_value})"
