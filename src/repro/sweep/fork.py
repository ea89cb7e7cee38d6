"""Fork one warmed simulation prefix into N what-if continuations.

The design-space question "how would *this same* warmed-up system behave
under a different load / VC budget / fault future?" usually costs N full
runs.  With checkpoints it costs one prefix plus N continuations: run the
common prefix once, :meth:`Checkpoint.capture` it, then :func:`fork` —
each continuation rebuilds a congruent SoC, restores the checkpoint,
applies its override and runs on.  Because restore is byte-identical, a
forked continuation equals a cold run that applied the same override at
the same cycle; the sweep is a pure wall-clock optimisation.

Overrides come in two kinds:

- **fork** (``apply=``): a state-compatible tweak — traffic rate, an
  extended fault schedule (:meth:`FaultInjector.extend_schedule`), an
  arbiter knob.  Warm-started from the checkpoint.
- **cold** (``build=``): a structural change — VC count, routing mode,
  topology — that makes the checkpoint non-congruent.  Run cold from
  cycle 0 (prefix + continuation) with the alternate builder, and
  flagged ``"mode": "cold"`` in the report so the cost difference is
  visible.

Everything handed to a process pool (builders, overrides, collectors)
must be module-level picklable; ``processes=0`` runs serially in-process
and accepts arbitrary callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.sweep.checkpoint import Checkpoint
from repro.sweep.worker import bootstrap_soc, mp_context


@dataclass(frozen=True)
class Override:
    """One what-if configuration of the sweep.

    Exactly one of ``apply`` (fork from the checkpoint) or ``build``
    (cold run with an alternate builder) must be provided.  ``apply``
    receives the restored SoC at the fork cycle, before any further
    stepping; ``build`` is a zero-argument callable returning a fresh
    SoC of the alternate structure.
    """

    name: str
    apply: Optional[Callable] = None
    build: Optional[Callable] = None

    def __post_init__(self) -> None:
        if (self.apply is None) == (self.build is None):
            raise ValueError(
                f"override {self.name!r}: provide exactly one of "
                f"apply= (fork) or build= (cold)"
            )


def default_collect(soc) -> Dict:
    """Metrics recorded per configuration when no collector is given."""
    return {
        "cycle": soc.sim.cycle,
        "completed": soc.total_completed(),
        "latency": soc.aggregate_latency(),
        "flits_forwarded": soc.fabric.total_flits_forwarded(),
    }


def run_cold(
    builder: Callable,
    override: Override,
    fork_cycle: int,
    run_cycles: int,
    collect: Callable = default_collect,
) -> Dict:
    """Reference path: full run with the override applied at ``fork_cycle``.

    This is exactly what a forked continuation must reproduce — the
    equivalence tests and the bench's ``results_match`` flag compare
    against it.
    """
    soc = bootstrap_soc(builder if override.build is None else override.build)
    soc.run(fork_cycle)
    if override.apply is not None:
        override.apply(soc)
    soc.run(run_cycles)
    return collect(soc)


def _run_fork_task(task) -> Dict:
    """Pool worker: one continuation (module-level for picklability)."""
    ckpt_bytes, builder, override, run_cycles, fork_cycle, collect = task
    if override.build is not None:
        # Structural override: the checkpoint is non-congruent; pay for
        # the prefix again with the alternate builder.
        return run_cold(builder, override, fork_cycle, run_cycles, collect)
    soc = bootstrap_soc(builder)
    Checkpoint.from_bytes(ckpt_bytes).restore_into(soc)
    override.apply(soc)
    soc.run(run_cycles)
    return collect(soc)


def fork(
    checkpoint: Checkpoint,
    overrides: Sequence[Override],
    *,
    builder: Callable,
    cycles: int,
    processes: int = 0,
    collect: Callable = default_collect,
) -> Dict:
    """Run every override for ``cycles`` past the checkpoint.

    Parameters
    ----------
    checkpoint:
        The captured common prefix (see :meth:`Checkpoint.capture`).
    overrides:
        The configurations to explore; report order follows input order
        regardless of which worker finishes first.
    builder:
        Zero-argument callable rebuilding a SoC congruent with the
        checkpoint (the same builder that produced the captured run).
    cycles:
        Continuation length past the fork cycle.
    processes:
        0 = serial in-process (deterministic, no pickling constraints);
        N > 0 = a ``multiprocessing`` pool of N workers.

    Returns a report dict keyed by configuration name::

        {"fork_cycle": C, "run_cycles": N,
         "configs": {name: {"mode": "fork"|"cold", "metrics": {...}}}}
    """
    if not overrides:
        raise ValueError("fork() needs at least one override")
    names = [o.name for o in overrides]
    if len(set(names)) != len(names):
        raise ValueError(f"override names must be unique, got {names}")
    fork_cycle = checkpoint.cycle
    ckpt_bytes = checkpoint.to_bytes()  # once per sweep, not per override
    tasks = [
        (
            ckpt_bytes if override.build is None else b"",
            builder,
            override,
            cycles,
            fork_cycle,
            collect,
        )
        for override in overrides
    ]
    if processes and processes > 0:
        with mp_context().Pool(processes) as pool:
            results: List[Dict] = pool.map(_run_fork_task, tasks)
    else:
        results = [_run_fork_task(task) for task in tasks]
    return {
        "fork_cycle": fork_cycle,
        "run_cycles": cycles,
        "configs": {
            override.name: {
                "mode": "cold" if override.build is not None else "fork",
                "metrics": metrics,
            }
            for override, metrics in zip(overrides, results)
        },
    }
