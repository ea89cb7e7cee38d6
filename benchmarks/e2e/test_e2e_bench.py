"""Tier-1 checks of the benchmark harness itself, on tiny windows.

The benchmark's numbers are only as good as its bookkeeping: these pin
the helpers, the layer map (no silent "other"), the by-construction sum
of the layer table, the agreement between what the harness emits and what
``BENCHMARK.json`` declares, and that a wrong result really fails.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SEED = workloads.SPEC["default_seed"]
TINY = {
    "mixed_saturated": {"cycles": 150},
    "mixed_sparse": {"cycles": 3000, "check_cycles": 1500},
    "torus_hotspot": {"cycles": 100},
    "gals_links": {"cycles": 300},
    "dma_completion": {"engines": 2, "links": 2},
    "sweep_fork4": {"prefix_cycles": 100, "fork_cycles": 50},
    "sharded_torus_2p": {"width": 4, "cycles": 150},
}


def tiny(name):
    return workloads.WORKLOADS[name](TINY[name])


@pytest.fixture(autouse=True)
def default_configuration(monkeypatch):
    """The benchmark measures the default kernel and router core, and
    ``run.main`` clears these itself: monkeypatch puts them back."""
    for variable in run._NON_DEFAULT_ENV:
        monkeypatch.delenv(variable, raising=False)


def test_summarize_reports_median_and_spread():
    summary = harness.summarize([4.0, 1.0, 2.0, 3.0])
    assert summary == {
        "value": 2.5, "median": 2.5, "min": 1.0, "max": 4.0, "n": 4,
        "spread": 1.2,
    }
    assert harness.summarize([4.0, 1.0, 2.0], pick=max)["value"] == 4.0


def test_percentile_interpolates_inside_the_integer_bin():
    assert workloads.percentile([20] * 10, 50) == 20.0
    assert workloads.percentile([20] * 5 + [21] * 5, 50) == 20.5
    # 3 of 4 samples below 21: the median sits 2/3 through bin 20.
    assert workloads.percentile([20, 20, 20, 21], 50) == pytest.approx(
        19.5 + 2 / 3
    )
    assert workloads.percentile([], 99) == 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_component_class_maps_to_a_named_layer(name):
    soc = tiny(name).builder(SEED).build()
    classes = {type(c) for c in soc.sim.components}
    classes |= {type(m.traffic) for m in soc.masters.values()}
    for cls in classes:
        assert tracing.layer_of(cls) in tracing.LAYERS


def test_unmapped_class_is_an_error_not_other():
    from repro.bus.shared_bus import SharedBus

    with pytest.raises(tracing.UnmappedClassError):
        tracing.layer_of(SharedBus)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_both_views_emit_exactly_the_declared_metrics(
    name, monkeypatch, tmp_path
):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    monkeypatch.setattr(harness, "SETUP_SAMPLES", (1, 1))
    workload = tiny(name)
    measured = harness.measure(workload, SEED, seconds=0)
    assert measured["ops_attempted"] == harness.MIN_REPEATS
    assert measured["ops_failed"] == 0, measured["failures"]
    assert list(measured["metrics"]) == [
        m["name"] for m in DECLARED["end_to_end"]
    ]
    assert all(m["value"] > 0 for m in measured["metrics"].values())

    profiled = harness.profile(workload, SEED)
    assert profiled["ops_failed"] == 0, profiled["failures"]
    assert list(profiled["metrics"]) == [
        m["name"] for m in DECLARED["per_layer"]
    ]
    assert profiled["fingerprint"] == measured["fingerprint"]
    written = json.loads((tmp_path / f"trace_{name}.json").read_text())
    assert written["metrics"].keys() == profiled["metrics"].keys()
    if workload.traceable:
        # Layer self times sum to the traced wall by construction.
        total = sum(
            profiled["metrics"][f"{layer}.self_s"]["value"]
            for layer in tracing.LAYERS
        )
        assert total == pytest.approx(profiled["traced_wall_s"], rel=1e-9)
        assert "sim.kernel.self_s" not in profiled["absent"]
        assert "shard.rounds" in profiled["absent"]
    else:
        assert "sim.kernel.self_s" in profiled["absent"]
        assert profiled["metrics"]["shard.rounds"]["value"] > 0


def test_declared_names_units_and_bounds_match_the_harness():
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    assert [w["name"] for w in DECLARED["workloads"]] == list(
        workloads.WORKLOADS
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in DECLARED["end_to_end"]
    ] == list(harness.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]
    ] == list(harness.PER_LAYER)
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in DECLARED[section]
    ]
    assert len(set(names)) == len(names)
    assert all(name_re.fullmatch(name) for name in names)
    assert DECLARED["paths"] == ["benchmarks/e2e"]


def test_interaction_table_names_only_declared_metrics_and_workloads():
    spec = workloads.SPEC
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    assert set(spec["windows"]) == set(workloads.WORKLOADS)
    assert set(spec["model_only"]) <= end_to_end
    for row in spec["interactions"]:
        assert set(row["layer_metrics"]) <= per_layer
        assert row["moves"] in end_to_end
        assert set(row["on"] + row["not_on"]) <= set(workloads.WORKLOADS)
    assert spec["held_out_seed"] != spec["default_seed"]


def test_corrupted_fingerprint_is_one_failed_op_and_nonzero_exit(
    monkeypatch, capsys
):
    monkeypatch.setitem(
        workloads.SPEC["windows"], "mixed_saturated",
        {"cycles": 150, "rate": 0.95},
    )
    monkeypatch.setattr(harness, "SETUP_SAMPLES", (1, 1))
    real_hash = workloads.fingerprint_hash
    calls = []

    def corrupt_second_hash(fingerprint):
        calls.append(1)
        return "corrupted" if len(calls) == 2 else real_hash(fingerprint)

    monkeypatch.setattr(workloads, "fingerprint_hash", corrupt_second_hash)
    code = run.main(
        ["--workload", "mixed_saturated", "--trace", "0", "--seconds", "0"]
    )
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert summary["correct"] is False
    assert summary["attempted"] == harness.MIN_REPEATS
    assert summary["failed"] == 1
