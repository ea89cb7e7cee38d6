"""Freeze/thaw a running SoC as a self-contained checkpoint.

A checkpoint is one pickle of the state of the SoC's *named* objects:
the built SoC (either builder's), its simulator, every registered
component and queue (by registration name) and every master's traffic
source.  An object's state is its instance attributes (``__dict__`` plus
slots), less any attribute that shadows a method of its class — a
wrapped ``tick`` or ``poll`` is instrumentation, and it stays on the
object it was installed on.  A reference to a named object pickles as
a call of :func:`_named` on its name (the dispatch table of the named
objects' classes sees to it, so no other object costs a Python call);
everything else — flits and transactions in flight, stats,
the tracer, the fabric's planes and tables, the simulator's id streams
and token logs — travels by value under the one memo, so every alias
inside the SoC stays one object on the other side (a traffic source and
the simulator share one ``txn_ids`` stream before and after).

:meth:`Checkpoint.restore_into` unpickles with each name resolved to
the target's own object and installs each state there, keeping the
target's instrumentation.  The target is a congruent build (the same
builder: the same names, the same kernel and tracing, objects with the
same attributes), typically a fresh one, or the captured SoC itself.
Every other attribute of a named object is the donor's, a setting the
target was built or configured with included (a router's
``stream_fast_path``, say).  Every *unnamed* object the target held is
replaced by the checkpoint's copy: a plane, a stats registry or a
tracer read off the SoC before ``restore_into`` is stale afterwards;
read it off the SoC again.  Each restore unpickles a copy of its own,
so one checkpoint seeds any number of what-if runs.

Serialized, the payload follows a versioned header (magic, version,
cycle, payload length); :class:`CheckpointFormatError` names format
mismatches instead of letting unpickling fail obscurely.  It is still
a pickle: load only checkpoints this program wrote.
"""

from __future__ import annotations

import copyreg
import functools
import io
import pickle
import struct
from types import FunctionType, MethodType
from typing import Dict, FrozenSet, Tuple

from repro.sim.fingerprint import named_parts
from repro.sim.shard import ShardConfigError

#: Bump when the on-disk envelope or the payload's layout changes shape,
#: or a pickled class moves module (a pickle names classes by module path).
FORMAT_VERSION = 10

_MAGIC = b"repro-ckpt"
#: magic, format version, cycle, payload length
_HEADER = struct.Struct(f">{len(_MAGIC)}sBQQ")
_UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError)


class CheckpointFormatError(RuntimeError):
    """Bytes that are not a checkpoint, or one from another format era."""


class CheckpointMismatchError(RuntimeError):
    """A checkpoint restored into a build with other named objects, or
    with another kernel or other tracing."""


class CheckpointCaptureError(RuntimeError):
    """A named object's state does not pickle."""


def _named_objects(soc) -> Dict[Tuple[str, str], object]:
    """The objects a checkpoint carries the state of, by name: the SoC,
    its simulator and its :func:`~repro.sim.fingerprint.named_parts`."""
    if getattr(soc, "shard_plan", None) is not None:
        raise ShardConfigError(
            "a checkpoint of a sharded build is out of scope (v1): no "
            "restore of one is shown to replay byte-identically — build "
            "without shards= for checkpoint sweeps"
        )
    return {("soc", ""): soc, ("simulator", ""): soc.sim, **named_parts(soc)}


def _describe(key: Tuple[str, str]) -> str:
    kind, name = key
    return f"{kind} {name!r}" if name else kind


def _modes(soc) -> Dict[str, bool]:
    """The build settings a checkpoint carries and a restore will not
    switch: which kernel runs, and whether the SoC's tracer records."""
    return {"strict": soc.sim.strict, "tracing": soc.sim.trace.enabled}


@functools.lru_cache(maxsize=None)
def _layout(cls) -> Tuple[FrozenSet[str], Tuple[str, ...]]:
    """The method names and the slot names of ``cls``."""
    methods = frozenset(
        name
        for name in dir(cls)
        if isinstance(getattr(cls, name, None), (FunctionType, MethodType))
    )
    slots = tuple(
        name
        for klass in cls.__mro__
        for name in klass.__dict__.get("__slots__", ())
        if name not in ("__dict__", "__weakref__")
    )
    return methods, slots


def _state_of(obj) -> dict:
    """``obj``'s instance attributes, less those shadowing a method."""
    methods, slots = _layout(type(obj))
    state = {name: getattr(obj, name) for name in slots if hasattr(obj, name)}
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        state.update((n, v) for n, v in attrs.items() if n not in methods)
    return state


def _install(obj, state: dict) -> None:
    """Set ``state`` on ``obj`` attribute by attribute: its own shims
    stay, and no instance dict is read into existence (on CPython 3.11
    an object whose ``__dict__`` was read keeps its attribute reads off
    the interpreter's cache)."""
    for name, value in state.items():
        object.__setattr__(obj, name, value)


def _reduce(obj):
    """Reduce ``obj`` as pickle would, except that an object pickled as
    its class and its instance dict gets its attributes back one by one
    (:func:`_install`), where a built object keeps them, rather than in a
    dict the unpickler reads into existence: a SoC restored that way ran
    its continuations 15-30% slower than a built one."""
    reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    if (
        type(reduced) is tuple and len(reduced) == 5
        and reduced[0] is copyreg.__newobj__ and type(reduced[2]) is dict
        and reduced[3] is None and reduced[4] is None
    ):
        return reduced + (_install,)
    return reduced


def _pickle_reduce(obj):
    """Reduce ``obj`` exactly as pickle would."""
    return obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)


def _named(key: Tuple[str, str]):
    """Stands for the named object ``key`` in a checkpoint's pickle;
    only :meth:`Checkpoint.restore_into`'s unpickler resolves it."""
    raise CheckpointFormatError(f"{_describe(key)} resolves only in a restore")


class _Reducers(dict):
    """One capture's dispatch table, per class: what :mod:`copyreg`
    registers; pickle's own reduction for a class that defines
    ``__setstate__``, which must run; :func:`_reduce` for the rest.  A
    class with a named instance reduces that instance to a call of
    :func:`_named` on its name, so only those classes pay a lookup per
    object.  Metaclasses are left out: their instances (classes) pickle
    by name."""

    def __init__(self, named: Dict[Tuple[str, str], object]) -> None:
        super().__init__()
        names = {id(obj): key for key, obj in named.items()}

        def name_or_reduce(obj, reduce):
            key = names.get(id(obj))
            return reduce(obj) if key is None else (_named, (key,))

        for cls in {type(obj) for obj in named.values()}:
            self[cls] = functools.partial(name_or_reduce, reduce=self[cls])

    def __missing__(self, cls):
        if issubclass(cls, type):
            raise KeyError(cls)
        reducer = copyreg.dispatch_table.get(cls)
        if reducer is None:
            reducer = _pickle_reduce if hasattr(cls, "__setstate__") else _reduce
        self[cls] = reducer
        return reducer


def _pickler(file, named: Dict[Tuple[str, str], object]) -> pickle.Pickler:
    """A pickler that writes a named object as a call on its name."""
    pickler = pickle.Pickler(file, pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = _Reducers(named)
    return pickler


def _unpickler(file, named: Dict[Tuple[str, str], object]) -> pickle.Unpickler:
    """An unpickler that resolves :func:`_named` to ``named``'s objects."""

    class Unpickler(pickle.Unpickler):
        def find_class(self, module, name):
            if (module, name) == (__name__, _named.__name__):
                return named.__getitem__
            return super().find_class(module, name)

    return Unpickler(file)


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
        """Snapshot ``soc`` right now: its names first, then one pickle
        of every named object's state."""
        named = _named_objects(soc)
        states = {key: _state_of(obj) for key, obj in named.items()}
        buffer = io.BytesIO()
        dumper = _pickler(buffer, named)
        dumper.dump((soc.sim.cycle, tuple(named), _modes(soc)))
        try:
            dumper.dump(states)
        except _UNPICKLABLE as exc:
            for key, state in states.items():
                try:
                    _pickler(io.BytesIO(), named).dump(state)
                except _UNPICKLABLE:
                    raise CheckpointCaptureError(
                        f"state of {_describe(key)} does not pickle: {exc}"
                    ) from exc
            raise
        return cls(buffer.getvalue(), soc.sim.cycle)

    def restore_into(self, soc) -> None:
        """Load this checkpoint into a congruently built SoC.

        Each call unpickles a copy of its own, so the checkpoint stays
        pristine and may be restored again (the fork sweep relies on
        this).  A build with other names, another kernel or other
        tracing is refused (:class:`CheckpointMismatchError`); any other
        setting of ``soc`` becomes the donor's.  Unnamed objects read
        off ``soc`` before the call are stale after it (see the module
        docstring).
        """
        named = _named_objects(soc)
        loader = _unpickler(io.BytesIO(self._payload), named)
        try:
            cycle, keys, modes = loader.load()
        except Exception as exc:  # a corrupt pickle raises nearly anything
            raise CheckpointFormatError(f"payload does not unpickle: {exc!r}") from exc
        if cycle != self._cycle or not isinstance(keys, tuple):
            raise CheckpointFormatError(f"payload is no cycle-{self._cycle} checkpoint")
        unknown, missing = set(keys) - named.keys(), named.keys() - set(keys)
        if unknown or missing:
            raise CheckpointMismatchError(
                "checkpoint does not fit this build: "
                f"unknown {sorted(map(_describe, unknown))!r}, "
                f"missing {sorted(map(_describe, missing))!r}"
            )
        if modes != _modes(soc):
            raise CheckpointMismatchError(
                f"checkpoint was taken with {modes!r}, this build has {_modes(soc)!r}"
            )
        try:
            states = loader.load()
        except Exception as exc:
            raise CheckpointFormatError(f"payload does not unpickle: {exc!r}") from exc
        for key, state in states.items():
            _install(named[key], state)

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
