"""One row type and one checker for every build-time refusal: each owner
keeps a tuple of :class:`Check` rows beside the code it guards and runs
:func:`check` before it registers anything.  Rows are data, so a test can
enumerate every refusal and a fuzzer can read which knobs have a model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence, Tuple, Type


@dataclass(frozen=True)
class Check:
    """``holds(subject)``, or ``error(message(subject))``; a spec row reads
    one knob, a pair row two."""

    name: str
    knobs: Tuple[str, ...]
    holds: Callable[[Any], bool]
    message: Callable[[Any], str]
    error: Type[Exception] = ValueError


def knob(name: str, holds: Callable[[Any], bool], requirement: str) -> Check:
    """A spec row: ``{name} must be {requirement}, got {value!r}``."""
    return Check(name, (name,), holds,
                 lambda s: f"{name} must be {requirement}, got {getattr(s, name)!r}")


def check(owner: str, subject: Any, rows: Sequence[Check]) -> None:
    """Raise the first failing row's error as ``"{owner}: {message}"``."""
    for row in rows:
        if not row.holds(subject):
            raise row.error(f"{owner}: {row.message(subject)}")
