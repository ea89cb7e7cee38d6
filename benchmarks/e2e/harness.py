"""Measuring one workload: repeats, correctness operations, medians.

Two kinds of invocation, matching ``--trace 0`` and ``--trace 1``:

- :func:`measure` — set-up samples, then measured repeats (fresh build,
  ``gc.collect()`` before each, no tracing) for ``--seconds``; every
  timing is reported as its median with min, max, sample count and
  spread.  These are the end-to-end metrics.
- :func:`profile` — two untraced reference runs, the check run (strict ≡
  activity, forked ≡ cold, or ``processes=0`` ≡ ``processes=2``) and two
  traced runs, the faster of which gives the layer table.  These are the
  per-layer metrics.

Every run is an *operation*: it fails if it raises, reports a failure of
its own (ordering violations, issued != completed), or ends with a
fingerprint other than the first run's.  ``attempted`` / ``failed`` count
them; any failure makes the command exit non-zero.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import tracing

#: Measured repeats never go below this, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: A single-process repeat whose wall exceeds its CPU time by this factor
#: was descheduled for part of it.
NOISY_WALL_OVER_CPU = 1.15
#: Set-up samples taken before each measured repeat (so that they spread
#: over the whole invocation): at least the first number, at most the
#: second, stopping in between once SETUP_SECONDS are spent.
SETUP_SAMPLES = (2, 8)
SETUP_SECONDS = 0.1

OUT_DIR = Path(__file__).with_name("out")

END_TO_END = (
    # name, unit, better, bound.  A bound is about three times the
    # quartile distance seen over ten seeds on the noisiest workload (see
    # README.md, "Bounds"); the contract caps it at 0.25.
    ("cycles_per_s", "1/s", "higher", 0.25),
    ("flits_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("txns_per_kcycle", "1/kcycle", "higher", 0.20),
    ("txn_latency_p50_cycles", "cycles", "lower", 0.25),
    ("txn_latency_p99_cycles", "cycles", "lower", 0.25),
)

PER_LAYER = tuple(
    entry
    for layer in tracing.LAYERS
    for entry in (
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.calls", "count", "lower"),
        (f"{layer}.share", "ratio", "lower"),
    )
) + (
    ("sim.kernel.steps", "count", "lower"),
    ("sim.kernel.cycles_skipped", "cycles", "higher"),
    ("sim.kernel.wheel_events", "count", "lower"),
    ("sim.kernel.ticks_per_step", "ratio", "lower"),
    ("sim.kernel.strict_cycles_per_s", "1/s", "higher"),
    ("sim.kernel.activity_vs_strict", "ratio", "higher"),
    ("sim.stats.samples_held", "count", "lower"),
    ("transport.router.flits_forwarded", "count", "higher"),
    ("transport.router.ns_per_flit", "ns", "lower"),
    ("transport.router.packets_adaptive", "count", "higher"),
    ("transport.router.packets_escape", "count", "lower"),
    ("transport.ports.packets_resequenced", "count", "lower"),
    ("phys.phits_carried", "count", "higher"),
    ("niu.requests_sent", "count", "higher"),
    ("protocols.txns_completed", "count", "higher"),
    ("soc.build_s", "s", "lower"),
    ("sweep.capture_s", "s", "lower"),
    ("sweep.restore_s", "s", "lower"),
    ("sweep.checkpoint_bytes", "bytes", "lower"),
    ("shard.rounds", "count", "lower"),
    ("shard.safe_window_mean", "cycles", "higher"),
    ("shard.coordinator_s", "s", "lower"),
    ("shard.busy_total_s", "s", "lower"),
    ("shard.critical_path_s", "s", "lower"),
    ("shard.boundary_flits", "count", "lower"),
    ("shard.wall_vs_single", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def summarize(values, pick=statistics.median) -> dict:
    """The metric (``pick`` of the samples, the median unless said
    otherwise) with median, min, max, sample count and
    ``(max - min) / median``."""
    values = list(values)
    median = statistics.median(values)
    return {
        "value": pick(values),
        "median": median,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "spread": (max(values) - min(values)) / median if median else 0.0,
    }


def meta(seed: int) -> dict:
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg()[0],
    }


def _operation(run, first):
    """Run one operation; returns its observation with ``failures`` set
    (an observation that raised has nothing else)."""
    try:
        observation = run()
    except Exception as exc:  # an operation that raises is a failed one
        traceback.print_exc()
        return {"failures": [f"raised {type(exc).__name__}: {exc}"]}
    if first is not None and observation["fingerprint"] != first["fingerprint"]:
        observation["failures"].append(
            f"fingerprint {observation['fingerprint']} != first run's "
            f"{first['fingerprint']}"
        )
    return observation


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped worker
    (``ru_maxrss`` is KiB on Linux)."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def _sample_setup(workload, seed, samples) -> None:
    started = time.perf_counter()
    least, most = SETUP_SAMPLES
    taken = 0
    while taken < least or (
        taken < most and time.perf_counter() - started < SETUP_SECONDS
    ):
        gc.collect()
        samples.append(workload.setup(seed))
        taken += 1


def _result(workload, host, trace, operations, metrics, **extra) -> dict:
    failures = [
        f"{label}: {failure}"
        for label, observation in operations
        for failure in observation["failures"]
    ]
    return {
        "workload": workload.name,
        "trace": trace,
        "window": workload.window,
        "meta": host,
        "ops_attempted": len(operations),
        "ops_failed": sum(
            bool(observation["failures"]) for _, observation in operations
        ),
        "failures": failures,
        "fingerprint": next(
            (o["fingerprint"] for _, o in operations if "fingerprint" in o),
            None,
        ),
        "metrics": metrics,
        **extra,
    }


# --------------------------------------------------------------------- #
# --trace 0
# --------------------------------------------------------------------- #
def measure(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics of ``workload`` from repeats filling ``seconds``."""
    host = meta(seed)
    setups = []
    started = time.perf_counter()
    operations = []
    first = None
    while True:
        _sample_setup(workload, seed, setups)
        observation = _operation(lambda: workload.run(seed), first)
        operations.append((f"repeat {len(operations) + 1}", observation))
        if first is None and "fingerprint" in observation:
            first = observation
        elapsed = time.perf_counter() - started
        per_repeat = elapsed / len(operations)
        if (
            len(operations) >= MIN_REPEATS
            and elapsed + per_repeat / 2 > seconds
        ):
            break
    runs = [o for _, o in operations if "wall_s" in o]
    if not runs:
        return _result(workload, host, 0, operations, {})
    setups += [r["build_s"] for r in runs if r["build_s"] is not None]
    # Contention on a shared host only ever slows a repeat down, so the
    # speed metrics are those of the fastest repeat; the median and the
    # spread are reported beside them.
    values = {
        "cycles_per_s": summarize(
            (r["cycles"] / r["wall_s"] for r in runs), pick=max
        ),
        "flits_per_s": summarize(
            (r["flits"] / r["wall_s"] for r in runs), pick=max
        ),
        "setup_s": summarize(setups),
        "peak_rss_mb": summarize([_peak_rss_mb()]),
        # Simulated time: identical on every repeat of one seed.
        "txns_per_kcycle": summarize(
            1000.0 * r["completed"] / r.get("model_cycles", r["cycles"])
            for r in runs
        ),
        "txn_latency_p50_cycles": summarize(r["p50"] for r in runs),
        "txn_latency_p99_cycles": summarize(r["p99"] for r in runs),
    }
    metrics = {
        name: {"unit": unit, **values[name]}
        for name, unit, _, _ in END_TO_END
    }
    repeats = [
        {
            "wall_s": r["wall_s"],
            "cpu_s": r["cpu_s"],
            "noisy": workload.single_process
            and r["wall_s"] > NOISY_WALL_OVER_CPU * r["cpu_s"],
        }
        for r in runs
    ]
    return _result(workload, host, 0, operations, metrics, repeats=repeats)


# --------------------------------------------------------------------- #
# --trace 1
# --------------------------------------------------------------------- #
def profile(workload, seed: int) -> dict:
    """Per-layer metrics of ``workload``: reference runs, check run,
    traced runs.  A metric nothing on this workload produces (a layer the
    shims cannot reach, another workload's ``sweep.*`` / ``shard.*``)
    reads 0 and is listed under ``absent``."""
    host = meta(seed)
    operations = []
    first = None
    for index in range(2):
        observation = _operation(lambda: workload.run(seed), first)
        operations.append((f"reference {index + 1}", observation))
        if first is None and "fingerprint" in observation:
            first = observation
    if first is None:
        return _result(workload, host, 1, operations, {})
    values = {}

    def check():
        failures, check_values = workload.check(seed, first)
        values.update(check_values)
        return {"failures": failures, "fingerprint": first["fingerprint"]}

    operations.append(("check", _operation(check, first)))

    references = [o for _, o in operations[:2] if "wall_s" in o]
    untraced_wall = statistics.median(r["wall_s"] for r in references)
    # The layer table comes from the faster of two traced runs, for the
    # reason the speed metrics come from the fastest repeat.
    source = first
    table = None
    tracer = tracing.Tracer()
    for index in range(2 if workload.traceable else 0):
        candidate = tracing.Tracer()
        traced = _operation(
            lambda: workload.run(seed, tracer=candidate), first
        )
        operations.append((f"traced {index + 1}", traced))
        if "wall_s" in traced and (
            table is None or traced["wall_s"] < source["wall_s"]
        ):
            source, tracer = traced, candidate
            table = tracer.table(traced["wall_s"])
    values.update(source["counters"])
    builds = [
        o["build_s"] for _, o in operations if o.get("build_s") is not None
    ]
    if not builds:
        _sample_setup(workload, seed, builds)
    values["soc.build_s"] = statistics.median(builds)
    if table is not None:
        for layer, entry in table.items():
            for field in ("self_s", "calls", "share"):
                values[f"{layer}.{field}"] = entry[field]
        steps = values["sim.kernel.steps"]
        flits = values["transport.router.flits_forwarded"]
        values["sim.kernel.ticks_per_step"] = (
            tracer.by_call["tick"][0] / steps if steps else 0.0
        )
        values["transport.router.ns_per_flit"] = (
            1e9 * table["transport.router"]["self_s"] / flits if flits else 0.0
        )
        for metric, call in (
            ("sweep.capture_s", "Checkpoint.capture"),
            ("sweep.restore_s", "Checkpoint.restore_into"),
        ):
            calls, seconds = tracer.by_call[call]
            if calls:
                values[metric] = seconds
        values["trace.overhead_ratio"] = source["wall_s"] / untraced_wall
    metrics = {
        name: {"unit": unit, "value": values.get(name, 0.0)}
        for name, unit, _ in PER_LAYER
    }
    result = _result(
        workload, host, 1, operations, metrics,
        absent=[name for name, _, _ in PER_LAYER if name not in values],
        untraced_wall_s=untraced_wall,
        traced_wall_s=source["wall_s"] if table else None,
        layers=table,
        calls=tracer.by_call,
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace_{workload.name}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True)
    )
    return result
