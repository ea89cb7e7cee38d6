"""The fingerprint is the declared counters.

Each class that counts events names its counters once (``COUNTERS``, a
:class:`~repro.sim.stats.Counters`), and :func:`fingerprint_soc` reads
nothing else of a part.  So a counter is under the determinism contract
exactly when its class declares it: these tests check that every public
int a run changes is declared, that every declared name is an int, and
that a sharded build's fragments cover the single-process fingerprint.
"""

import pytest

import differential
from differential import ALIASES, E2E_SOCS, e2e, pinned_bus_soc
from repro.sim.fingerprint import fingerprint_soc, named_parts
from repro.sim.shard import fingerprint_shard
from repro.transport.router import Router

#: Cycles each single-process e2e SoC runs before the check.
E2E_WINDOW = 3000
#: Cycles the sharded e2e build runs in one process.
SHARDED_WINDOW = 300


def _public_ints(part):
    """``part``'s public int attributes (instance dict and slots)."""
    names = set(getattr(part, "__dict__", ()))
    for klass in type(part).__mro__:
        names.update(getattr(klass, "__slots__", ()))
    values = {name: getattr(part, name, None) for name in names
              if not name.startswith("_")}
    return {name: value for name, value in values.items() if type(value) is int}


def undeclared_counters(soc, advance):
    """Run ``advance(soc)`` and return every ``Class.attr`` of a named
    part that changed without being declared, or is declared and is not
    an int."""
    before = {key: _public_ints(part) for key, part in named_parts(soc).items()}
    advance(soc)
    found = set()
    for key, part in named_parts(soc).items():
        declared = getattr(part, "COUNTERS", None)
        names = declared.names if declared is not None else ()
        cls = type(part).__name__
        found.update(f"{cls}.{name} (declared, not an int)" for name in names
                     if type(getattr(part, name, None)) is not int)
        found.update(f"{cls}.{name}" for name, value in _public_ints(part).items()
                     if name not in names and before[key].get(name) != value)
    return sorted(found)


def assert_counters_declared(soc, advance):
    undeclared = undeclared_counters(soc, advance)
    assert not undeclared, f"counters outside the fingerprint: {undeclared}"


@pytest.fixture(scope="module")
def sharded():
    """The sharded e2e build after its window, run in this process, and
    what :func:`undeclared_counters` found over that window."""
    soc = e2e.WORKLOADS["sharded_torus_2p"]().builder(1105).build()
    return soc, undeclared_counters(soc, lambda s: s.run(SHARDED_WINDOW))


@pytest.mark.parametrize("name", [n for n in E2E_SOCS if n not in ALIASES])
def test_every_counter_an_e2e_run_changes_is_declared(name):
    """The single-process e2e SoCs (an alias builds its recipe's SoC)."""
    soc = differential.build(name)
    assert all(part is not soc.sim for part in named_parts(soc).values())
    assert_counters_declared(soc, lambda s: s.run(E2E_WINDOW))


def test_every_counter_a_sharded_run_changes_is_declared(sharded):
    soc, undeclared = sharded
    assert soc.sim.cycle == SHARDED_WINDOW
    assert not undeclared, f"counters outside the fingerprint: {undeclared}"


def test_every_counter_the_bus_pin_changes_is_declared():
    assert_counters_declared(
        pinned_bus_soc(), lambda s: s.run_to_completion(max_cycles=100_000)
    )


def test_an_undeclared_router_counter_is_named(monkeypatch):
    tick = Router.tick

    def counting_tick(self, cycle):
        self.probe_ticks = getattr(self, "probe_ticks", 0) + 1
        tick(self, cycle)

    monkeypatch.setattr(Router, "tick", counting_tick)
    soc = differential.build("mixed_saturated")
    with pytest.raises(AssertionError, match=r"Router\.probe_ticks"):
        assert_counters_declared(soc, lambda s: s.run(200))


def test_shard_fragments_partition_the_fingerprint(sharded):
    """Every name in a per-name section of the single-process
    fingerprint is in exactly one shard's fragment, so a part no shard
    owns cannot drop out of both sides of ``processes=0`` ≡ ``N``."""
    soc, __ = sharded
    single = fingerprint_soc(soc)
    fragments = [fingerprint_shard(soc, shard)
                 for shard in range(soc.shard_plan.n_shards)]
    sections = {key for key, value in single.items()
                if isinstance(value, dict) and key != "stats"}
    assert {"routers", "boundary_tx", "boundary_rx", "traffic"} <= sections
    for fragment in fragments:
        assert set(fragment) - {"histograms", "trace", "cycle"} <= sections
    for section in sections:
        names = [name for fragment in fragments
                 for name in fragment.get(section, {})]
        assert sorted(names) == sorted(single[section]), section
        for fragment in fragments:
            for name, value in fragment.get(section, {}).items():
                assert value == single[section][name], (section, name)
