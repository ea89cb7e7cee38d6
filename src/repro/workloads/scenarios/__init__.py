"""Built-in scenarios: one fixed, ready-to-run SoC per module.

Each module's ``build(strict_kernel=None)`` returns a
:class:`~repro.soc.builder.NocSoc`; the SoC's sizes are the module's
constants, and ``strict_kernel=`` (the reference kernel, for the
determinism tests) is its only parameter::

    from repro.workloads.scenarios import dma_chain

    soc = dma_chain.build()
    soc.run_to_completion()
"""

from __future__ import annotations

from repro.workloads.scenarios import (
    collective_allreduce,
    dma_chain,
    stream_pipeline,
)

__all__ = ["collective_allreduce", "dma_chain", "stream_pipeline"]
