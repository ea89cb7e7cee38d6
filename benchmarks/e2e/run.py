#!/usr/bin/env python3
"""The repo benchmark: one command, seven workloads, both views.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace 0|1] [--out FILE]

``--trace 0`` measures the end-to-end metrics of a workload, ``--trace 1``
its per-layer metrics (see ``harness.py``).  With both ``--workload`` and
``--trace`` given the run happens in this process and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Leave either out and every missing combination runs in a
child process of its own, one after another, and ``--out`` collects all
their results.  The exit code is non-zero if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

#: Variables that select a non-default kernel or router core; the
#: benchmark measures what a default user runs.
_NON_DEFAULT_ENV = ("REPRO_SIM_STRICT", "REPRO_ROUTER_CORE")


def _print_result(result: dict) -> None:
    print(f"== {result['workload']} (trace {result['trace']}, "
          f"seed {result['meta']['seed']}) window {result['window']}")
    print(f"   host: {result['meta']}")
    for name, metric in result["metrics"].items():
        line = f"   {name:40s} {metric['value']:16.6f} {metric['unit']}"
        if "n" in metric:
            line += (f"   (median {metric['median']:.6g} min "
                     f"{metric['min']:.6g} max {metric['max']:.6g} "
                     f"n={metric['n']} spread {metric['spread']:.2%})")
        print(line)
    for index, repeat in enumerate(result.get("repeats", []), 1):
        flag = "  NOISY (wall > 1.15 x cpu)" if repeat["noisy"] else ""
        print(f"   repeat {index}: wall {repeat['wall_s']:.4f} s "
              f"cpu {repeat['cpu_s']:.4f} s{flag}")
    if result.get("absent"):
        print(f"   absent on this workload (reported as 0): "
              f"{len(result['absent'])} per-layer metrics, listed in "
              f"out/trace_{result['workload']}.json")
    print(f"   fingerprint {result['fingerprint']}  ops_attempted "
          f"{result['ops_attempted']}  ops_failed {result['ops_failed']}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")


def _run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = workloads.WORKLOADS[name]()
    if trace:
        return harness.profile(workload, seed)
    return harness.measure(workload, seed, seconds)


def _run_children(pairs, args) -> list:
    """Each (workload, trace) pair in its own child, one after another."""
    harness.OUT_DIR.mkdir(exist_ok=True)
    results = []
    for name, trace in pairs:
        out = harness.OUT_DIR / f"result_{name}_trace{trace}.json"
        out.unlink(missing_ok=True)
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(trace), "--out", str(out)],
            check=False,
        )
        if out.exists():
            results.append(json.loads(out.read_text()))
        else:
            results.append({
                "workload": name, "trace": trace, "ops_attempted": 1,
                "ops_failed": 1, "failures": ["child wrote no result"],
            })
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int,
                        default=workloads.SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the measured repeats of one "
                             "workload run (at least %d repeats)"
                             % harness.MIN_REPEATS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path,
                        help="write the full result (samples, spreads, "
                             "host meta, layer table) as JSON")
    args = parser.parse_args(argv)
    for variable in _NON_DEFAULT_ENV:
        os.environ.pop(variable, None)

    if args.workload is not None and args.trace is not None:
        result = _run_one(args.workload, args.seed, args.seconds, args.trace)
        _print_result(result)
        summary = {
            "correct": result["ops_failed"] == 0 and bool(result["metrics"]),
            "attempted": result["ops_attempted"],
            "failed": result["ops_failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in result["metrics"].items()
            },
        }
        document = result
    else:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        traces = [args.trace] if args.trace is not None else [0, 1]
        results = _run_children(
            [(name, trace) for name in names for trace in traces], args
        )
        failed = sum(r["ops_failed"] for r in results)
        summary = {
            "correct": failed == 0,
            "attempted": sum(r["ops_attempted"] for r in results),
            "failed": failed,
            "runs": len(results),
        }
        document = {"meta": harness.meta(args.seed), "results": results}
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=1, sort_keys=True))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
