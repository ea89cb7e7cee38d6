#!/usr/bin/env python
"""Programmable endpoints: DMA descriptor chains and a tree allreduce.

Two built-in scenarios (:mod:`repro.workloads.scenarios`) run end-to-end
and report the fabric's per-flow latency SLA surface:

- ``dma_chain`` — eight DMA engines executing chained
  read -> compute -> write descriptor programs between a slow source
  memory and a fast destination memory.
- ``collective_allreduce`` — eight masters on a 4x4 torus combining
  partials through scratch-memory slots in a binary reduction tree,
  then broadcasting the result (the allreduce).

Both are plain :class:`~repro.soc.builder.NocSoc` objects — the same
``run_to_completion`` / ``flow_stats`` surface every other workload
uses — because DMA engines are just ``TrafficSource``\\ s behind the
protocol masters.

Run:  PYTHONPATH=src python examples/dma_dataflow.py
"""

from repro.workloads.scenarios import collective_allreduce, dma_chain


def print_flow_stats(soc) -> None:
    """Per-direction, per-priority latency percentiles (kernel cycles)."""
    print(f"{'direction':>10}{'prio':>6}{'count':>7}{'p50':>7}"
          f"{'p99':>7}{'p999':>7}")
    for direction, groups in soc.flow_stats().items():
        for prio, summary in sorted(groups["priority"].items()):
            print(f"{direction:>10}{prio:>6}{summary['count']:>7.0f}"
                  f"{summary['p50']:>7.0f}{summary['p99']:>7.0f}"
                  f"{summary['p999']:>7.0f}")


def main() -> None:
    print("=== dma_chain: descriptor programs with dependencies ===")
    soc = dma_chain.build()
    cycles = soc.run_to_completion()
    print(f"8 engines x 3-link chains completed at cycle {cycles} "
          f"({soc.total_completed()} transactions)")
    print_flow_stats(soc)

    print()
    print("=== collective_allreduce: tree reduction on a 4x4 torus ===")
    soc = collective_allreduce.build()
    cycles = soc.run_to_completion()
    print(f"8-node allreduce (3 combining rounds + broadcast) completed "
          f"at cycle {cycles} ({soc.total_completed()} transactions)")
    print_flow_stats(soc)

    print()
    print("Every number above came from the generic flow_stats surface —")
    print("the fabric never learned it was running DMA programs.")


if __name__ == "__main__":
    main()
