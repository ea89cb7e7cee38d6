"""Built-in scenarios: one ready-to-run SoC per module.

Each module's ``build(**params)`` returns a
:class:`~repro.soc.builder.NocSoc` and accepts at least
``strict_kernel=``::

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
