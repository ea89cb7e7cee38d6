"""Shared worker-process plumbing for multi-process sweeps.

Both multi-process entry points — checkpoint-forked design-space sweeps
(:mod:`repro.sweep.fork`) and sharded parallel simulation
(:mod:`repro.sweep.parallel`) — spawn processes that rebuild a SoC
*congruent* with the parent's by calling the same builder: a build's
ids are its own simulator's, so nothing else needs resetting first.

Workers use the ``fork`` start method (asserted at pool/process
creation): builders are closed over live objects — topologies, traffic
sources, LinkSpecs — that are not generally picklable, and fork
inherits them by address-space copy.  This is Linux/macOS-only, which
is where the benches run; on platforms without fork the multi-process
paths raise rather than silently running with ``spawn`` semantics.
"""

from __future__ import annotations

import multiprocessing

#: The start method every multi-process sweep uses (see module docstring).
START_METHOD = "fork"


def mp_context():
    """The multiprocessing context shared by fork() pools and shard
    workers (raises on platforms without the fork start method)."""
    return multiprocessing.get_context(START_METHOD)

