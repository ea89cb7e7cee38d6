"""Smoke tests: every shipped example runs clean and prints its result."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "examples must print their results"


def test_mixed_protocol_soc_prints_the_same_under_the_strict_kernel():
    """All five socket families, posted writes included, through NIUs and
    the bridged bus: the example whose text differed when a master
    parked on a refusal reason inferred after the fact."""
    script = next(p for p in EXAMPLES if p.name == "mixed_protocol_soc.py")
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SIM_STRICT"}
    outputs = [
        subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=300, env={**env, **extra}, check=True,
        ).stdout
        for extra in ({}, {"REPRO_SIM_STRICT": "1"})
    ]
    assert outputs[0] == outputs[1] != ""


def test_examples_present():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3  # quickstart + >=2 domain scenarios
