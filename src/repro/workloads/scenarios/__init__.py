"""Built-in scenarios: each module is a registry entry.

A scenario module exposes ``build(**params) -> NocSoc`` (accepting at
least ``strict_kernel=``) and ``describe()``; this package registers
every built-in under its module name on import, which
:mod:`repro.workloads` triggers — so ``repro.workloads.get("dma_chain")``
works as soon as the package is imported.
"""

from __future__ import annotations

from repro.workloads.registry import register
from repro.workloads.scenarios import (
    collective_allreduce,
    dma_chain,
    stream_pipeline,
)

__all__ = ["collective_allreduce", "dma_chain", "stream_pipeline"]

register("dma_chain", dma_chain)
register("stream_pipeline", stream_pipeline)
register("collective_allreduce", collective_allreduce)
