"""The harness itself: the digest table holds, and reference runs are shared.

``differential.PINNED`` is the model-change detector: every recipe's
``fingerprint_hash`` at its window, so a change anywhere in the model
fails here by name.  A digest that moves on purpose is re-pinned, and
CHANGES.md says which and why.
"""

import pytest

import differential
from differential import ALIASES, PINNED, RECIPES, e2e, run


@pytest.mark.parametrize(
    "recipe, cycles", PINNED,
    ids=[f"{recipe}-{cycles or 'completion'}" for recipe, cycles in PINNED],
)
def test_digest_is_pinned(recipe, cycles):
    assert run(recipe, cycles).digest == PINNED[(recipe, cycles)]


def test_an_alias_builds_the_same_soc():
    """``sweep_fork4`` shares ``mixed_saturated``'s runs because its SoC
    is built by the same method at the same rate."""
    for alias, recipe in ALIASES.items():
        workload, same = e2e.WORKLOADS[alias](), e2e.WORKLOADS[recipe]()
        assert type(workload).builder is type(same).builder
        assert workload.window["rate"] == same.window["rate"]


def test_a_reference_run_is_computed_once(monkeypatch):
    """Two asks for one uninterrupted key: the recipe builds once and
    the very same result comes back."""
    monkeypatch.setattr(differential, "_RUNS", {})
    monkeypatch.setattr(differential, "COMPUTED", differential.Counter())
    builds = []

    def counted(strict, _recipe=RECIPES["legacy-lock"]):
        builds.append(strict)
        return _recipe(strict)

    monkeypatch.setitem(RECIPES, "legacy-lock", counted)
    first = run("legacy-lock", 200)
    assert run("legacy-lock", 200) is first
    assert builds == [False]
    assert differential.COMPUTED == {("legacy-lock", 200, "activity", True): 1}
