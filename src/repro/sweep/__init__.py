"""Checkpointing and fork-based design-space sweeps.

:class:`~repro.sweep.checkpoint.Checkpoint` freezes a running
:class:`~repro.soc.builder.NocSoc` into one self-contained pickle of its
named objects' attributes; :func:`~repro.sweep.fork.fork` warm-starts
one simulated prefix and forks N what-if continuations (load points,
parameter tweaks) across a process pool, producing a deterministic
comparison report; :func:`~repro.sweep.parallel.run_sharded` runs a
``SocBuilder(shards=N)`` build as one conservative shard-worker process
per shard, byte-identical to the single-process run.
"""

from repro.sweep.checkpoint import (
    Checkpoint,
    CheckpointCaptureError,
    CheckpointFormatError,
    CheckpointMismatchError,
)
from repro.sweep.fork import Override, fork
from repro.sweep.parallel import ShardWorkerError, run_sharded

__all__ = [
    "Checkpoint",
    "CheckpointCaptureError",
    "CheckpointFormatError",
    "CheckpointMismatchError",
    "Override",
    "ShardWorkerError",
    "fork",
    "run_sharded",
]
