"""Checkpoint/restore and fork-sweep contracts.

The uniform state-capture protocol is only worth having if a restored
run is *byte-identical* to an uninterrupted one — same trace stream,
same queue counters, same histograms, same memory images — at every
layer and from every adversarial snapshot point: mid-wormhole, inside a
degraded fault epoch with the watchdog armed, mid-CDC-crossing, and on
a fully parked timing wheel.  These tests pin that on both kernels,
and pin the fork sweep's warm == cold equivalence on top.
"""

import functools
import pickle
import struct

import pytest

import repro.sweep.checkpoint as checkpoint_module
from differential import KERNELS, assert_same, build, observe, run
from repro.ip import TrafficSeedError, TrafficSpec
from repro.sim.component import Component
from repro.sim.snapshot import (
    SerialCounter,
    SnapshotError,
    SnapshotMismatchError,
    SnapshotVersionError,
    Snapshottable,
)
from repro.soc import FaultSchedule
from repro.sweep import Checkpoint, CheckpointFormatError, Override, fork
from repro.sweep.fork import run_cold


@pytest.mark.parametrize("kernel", KERNELS)
def test_mid_wormhole_roundtrip(kernel):
    """Cycle 850 of the lock workload: wormholes in flight, router LOCK
    ownership held, arbiters mid-rotation."""
    assert_same(run("legacy-lock", 3000, kernel, cut=850),
                run("legacy-lock", 3000, kernel))


@pytest.mark.parametrize("kernel", KERNELS)
def test_mid_fault_epoch_roundtrip(kernel):
    """Cycle 500 sits inside the [400, 900) degraded window: degraded
    route tables pushed, dead ports masked, partition watchdog armed."""
    assert_same(run("faulted-adaptive-gals", 5000, kernel, cut=500),
                run("faulted-adaptive-gals", 5000, kernel))


def test_mid_cdc_crossing_roundtrip():
    """Cycle 777 of the GALS build: phits mid-shift on serialized links,
    entries maturing inside CDC synchronizers, three clock domains."""
    assert_same(run("gals-serialized-links", 5000, cut=777),
                run("gals-serialized-links", 5000))


def test_parked_masters_and_returning_credits_roundtrip():
    """Cycle 500 of the saturated VC torus: masters parked on their own
    outstanding limit (the captured ``_limit_blocked``) and credits in
    the VC links' return loops (``CreditCounter._returning`` is derived
    state, rebuilt on restore)."""

    def probe(soc):
        parked = sorted(
            name for name, master in soc.masters.items()
            if master._limit_blocked and not master._scheduled
        )
        returning = [
            credit.in_return_loop
            for link in soc.fabric.physical_links for credit in link.credits
        ]
        return parked, returning, sum(returning)

    assert_same(run("vc-torus-saturated", 1000, cut=500, probe=probe),
                run("vc-torus-saturated", 1000))


def test_aliases_inside_the_tree_survive_the_pickle():
    """Cycle 626 of the saturated mixed SoC on an adaptive torus: an
    NIU's ``_peek_key`` *is* its socket's head record and a router's
    cached ``_alloc_fail`` flit *is* its input queue's front flit.  One
    pickle of the whole tree (one memo) keeps each pair one object."""

    def probe(soc):
        peeked = sorted(
            name for name, niu in soc.initiator_nius.items()
            if any(
                queue._committed and queue._committed[0] is niu._peek_key
                for queue in niu._native_req_queues
            )
        )
        blocked = sorted(
            (router.name, ivc)
            for plane in soc.fabric._planes
            for router in plane.routers.values()
            for ivc, cached in router._alloc_fail.items()
            if cached is not None
            and router.inputs[ivc]._committed
            and cached[1] is router.inputs[ivc]._committed[0]
        )
        return peeked, blocked

    assert_same(run("saturated-adaptive-torus", 900, cut=626, probe=probe),
                run("saturated-adaptive-torus", 900))


@pytest.mark.parametrize("restore", ["rebuilt", "same-soc"])
def test_reorder_buffer_gap_roundtrip(restore):
    """Cycle 330 of the adaptive hotspot SoC: one target's ejection port
    holds packets behind a gap (``_rob_blocked`` clear, nothing to do
    until a flit arrives) while the hot target's holds a releasable
    packet refused delivery space (``_rob_blocked`` set).  The flag is a
    function of the buffer, never captured: a rebuilt SoC and the donor
    itself, restored after running on, both recompute it and continue
    byte-identically."""

    def probe(soc):
        eports = [
            eport
            for plane in soc.fabric._planes
            for eport in plane.ejection_ports.values()
        ]
        waiting = sorted(
            e.name for e in eports if e._rob_count and not e._rob_blocked
        )
        blocked = sorted(e.name for e in eports if e._rob_blocked)
        return waiting, blocked

    restored = run("adaptive-hotspot", 800, cut=330, restore=restore,
                   probe=probe)
    assert_same(restored, run("adaptive-hotspot", 800))
    assert b"_rob_blocked" not in restored.checkpoint.to_bytes()


def test_same_soc_restore_drops_stats_created_after_the_cut():
    """Cycle 40 of the mixed SoC, restored into the donor after it ran
    on to 137: the per-pair flow histograms first created in between
    must go (and the ejection ports' handle caches with them), or their
    post-cut samples are counted twice."""
    assert_same(run("mixed-protocols", 400, cut=40, restore="same-soc"),
                run("mixed-protocols", 400))


def test_refusal_memo_is_dropped_on_restore_never_captured():
    """Cycle 1500 of the saturated mixed SoC: ``io_bvci``'s NIU holds a
    memoised admit refusal and masters sit limit-blocked (their ticks
    short-circuit).  The memo is a pure cache — absent from the
    snapshot, cleared by restore — so a rebuilt SoC *and* the donor
    itself, restored after running on, both continue byte-identically."""
    total, at = 2000, 1500
    donor = build("saturated-mixed")
    donor.run(at)
    niu = donor.initiator_nius["io_bvci"]
    assert niu._refused_txn is niu._peek_txn is not None
    assert niu._refused_version == niu.table.version
    assert any(master._limit_blocked for master in donor.masters.values())
    assert not {"_refused_txn", "_refused_version"} & set(niu.snapshot()["state"])
    checkpoint = Checkpoint.capture(donor)
    donor.run(97)  # moves the donor's memo and table version on

    for resumed in (build("saturated-mixed"), donor):
        checkpoint.restore_into(resumed)
        assert resumed.initiator_nius["io_bvci"]._refused_txn is None
        resumed.run(total - at)
        assert_same(observe(resumed), run("saturated-mixed", total))


def test_parked_wheel_roundtrip():
    """Checkpoint a fully drained SoC (every component parked or retired,
    wheel possibly holding stale entries): the restored system must stay
    quiescent and byte-identical."""
    soc = build("mixed-protocols")
    soc.run_to_completion()
    soc.run(16)
    assert soc.sim.active_count == 0
    checkpoint = Checkpoint.capture(soc)
    reference = observe(soc).fingerprint

    resumed = build("mixed-protocols")
    checkpoint.restore_into(resumed)
    resumed.run(64)
    assert resumed.sim.active_count == 0
    reference["cycle"] += 64  # only time advanced; nothing else may move
    assert_same(observe(resumed), reference)


# --------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------- #
def test_cached_flow_histogram_handles_survive_restore():
    """Ejection ports cache their per-flow histogram handles; after a
    restore into the *same* SoC they must point at the registered objects
    again (StatsRegistry.restore mutates in place, the cache re-resolves),
    so flow_stats() after snapshot -> run -> restore -> deliver equals
    the uninterrupted run."""
    reference = build("mixed-protocols")
    reference.run(1500)
    soc = build("mixed-protocols")
    soc.run(400)
    checkpoint = Checkpoint.capture(soc)
    at_cut = soc.flow_stats()
    soc.run(300)  # handles now cached; samples recorded past the cut
    checkpoint.restore_into(soc)
    assert soc.flow_stats() == at_cut
    soc.run(1100)
    assert soc.flow_stats() == reference.flow_stats() != at_cut


def test_checkpoint_bytes_and_file_roundtrip(tmp_path):
    soc = build("mixed-protocols")
    soc.run(1000)
    checkpoint = Checkpoint.capture(soc)

    clone = Checkpoint.from_bytes(checkpoint.to_bytes())
    assert clone.cycle == 1000

    path = tmp_path / "run.ckpt"
    checkpoint.save(str(path))
    loaded = Checkpoint.load(str(path))
    resumed = build("mixed-protocols")
    loaded.restore_into(resumed)
    assert resumed.sim.cycle == 1000

    soc.run(1500)
    resumed.run(1500)
    assert_same(observe(resumed), observe(soc))


def test_checkpoint_bad_bytes():
    with pytest.raises(CheckpointFormatError):
        Checkpoint.from_bytes(b"not a checkpoint at all")
    soc = build("mixed-protocols")
    soc.run(10)
    good = Checkpoint.capture(soc).to_bytes()
    data = bytearray(good)
    data[len(b"repro-ckpt")] = 0xFF  # corrupt the format version byte
    with pytest.raises(CheckpointFormatError):
        Checkpoint.from_bytes(bytes(data))

    # v2 wire format: magic, version byte, cycle, payload length, payload.
    header = len(b"repro-ckpt") + 1 + 8 + 8
    v1_blob = b"repro-ckpt\x01" + pickle.dumps(soc.snapshot())
    for rejected_unparsed in (
        b"repro-ckpt",             # magic only
        b"repro-ckpt\x01",         # ... and a version byte
        b"repro-ckpt\x01garbage",  # ... and something that is no pickle
        v1_blob,                   # a whole checkpoint of the v1 format
        good[:header - 1],         # header cut short
        good[:-1],                 # payload shorter than the header says
        good + b"\x00",            # ... and longer
    ):
        with pytest.raises(CheckpointFormatError):
            Checkpoint.from_bytes(rejected_unparsed)

    # A payload of the right length is only looked at by a restore.
    not_a_tree = pickle.dumps(["not", "a", "state", "tree"])
    for rejected_at_restore in (
        good[:header] + bytes(len(good) - header),
        good[:header - 8] + struct.pack(">Q", len(not_a_tree)) + not_a_tree,
    ):
        parsed = Checkpoint.from_bytes(rejected_at_restore)
        assert parsed.cycle == 10
        with pytest.raises(CheckpointFormatError):
            parsed.restore_into(soc)


class _CountingPickle:
    """``pickle`` as :mod:`repro.sweep.checkpoint` sees it, with the two
    calls that cost a pass over the state tree counted."""

    def __init__(self):
        self.calls = {"dumps": 0, "loads": 0}

    def dumps(self, *args):
        self.calls["dumps"] += 1
        return pickle.dumps(*args)

    def loads(self, data):
        self.calls["loads"] += 1
        return pickle.loads(data)

    def __getattr__(self, name):
        return getattr(pickle, name)


def test_copy_budget_of_a_serial_sweep(monkeypatch):
    """One pass over the tree at capture, one per continuation, none to
    parse or to serialise again: counts repeat exactly, so this is what
    keeps a per-override copy from creeping back."""
    counting = _CountingPickle()
    monkeypatch.setattr(checkpoint_module, "pickle", counting)
    donor = _mixed_builder()
    donor.run(200)
    checkpoint = Checkpoint.capture(donor)
    fork(checkpoint, RATE_OVERRIDES, builder=_mixed_builder, cycles=50,
         processes=0)
    assert counting.calls == {"dumps": 1, "loads": 4}
    blob = checkpoint.to_bytes()
    assert checkpoint.to_bytes() == blob
    assert Checkpoint.from_bytes(blob).cycle == 200
    assert counting.calls == {"dumps": 1, "loads": 4}


# --------------------------------------------------------------------- #
# named errors
# --------------------------------------------------------------------- #
def test_snapshot_version_mismatch():
    soc = build("mixed-protocols")
    soc.run(10)
    state = soc.snapshot()
    state["__v__"] = 999
    fresh = build("mixed-protocols")
    with pytest.raises(SnapshotVersionError):
        fresh.restore(state)


def test_snapshot_envelope_version_mismatch():
    counter = SerialCounter()
    next(counter)
    envelope = counter.snapshot()
    envelope["__v__"] = 999
    with pytest.raises(SnapshotVersionError):
        SerialCounter().restore(envelope)


def test_restore_into_incongruent_build():
    soc = build("mixed-protocols")
    soc.run(10)
    checkpoint = Checkpoint.capture(soc)
    other = build("legacy-lock")
    with pytest.raises(SnapshotMismatchError):
        checkpoint.restore_into(other)


class _CallbackProbe(Component, Snapshottable):
    """A user component that lists a callable among its captured fields."""

    _snapshot_fields = ("on_tick",)

    def __init__(self, name):
        super().__init__(name)
        self.on_tick = lambda cycle: None

    def tick(self, cycle):
        self.on_tick(cycle)


def test_capture_names_the_component_whose_state_does_not_pickle():
    soc = build("mixed-protocols")
    soc.sim.add(_CallbackProbe("user.probe"))
    soc.run(10)
    with pytest.raises(SnapshotError, match="component 'user.probe'"):
        Checkpoint.capture(soc)


def test_traffic_requires_explicit_seed():
    with pytest.raises(TrafficSeedError):
        TrafficSpec(kind="poisson", master="bad", count=4,
                    pairs=[(0, 0x100)]).build()


# --------------------------------------------------------------------- #
# fork sweeps
# --------------------------------------------------------------------- #
def _mixed_builder():
    return build("mixed-protocols")


def _set_rate(rate, soc):
    soc.masters["gpu_axi"].traffic.rate = rate


def _faulted_builder():
    return build("faulted-adaptive-gals")


def _extend_faults(soc):
    events = FaultSchedule().link_down(2000, (1, 0), (1, 1)).events
    for plane in soc.fabric._planes:
        plane.fault_injector.extend_schedule(events)


RATES = (0.05, 0.2, 0.5, 0.9)
RATE_OVERRIDES = [
    Override(name=f"rate={r}", apply=functools.partial(_set_rate, r))
    for r in RATES
]


# The loaded cut: every source of the saturated SoC is open loop, so at
# cycle 600 flits sit in router inputs, no master has finished, and an
# override of every master's rate sends the four continuations four
# different ways.
def _saturated_builder():
    return build("saturated-mixed")


def _set_every_rate(rate, soc):
    for master in soc.masters.values():
        master.traffic.rate = rate


LOADED_OVERRIDES = [
    Override(name=f"rate={r}", apply=functools.partial(_set_every_rate, r))
    for r in RATES
]


def router_flits(soc):
    return [
        flit
        for plane in soc.fabric._planes
        for router in plane.routers.values()
        for queue in router.inputs.values()
        for flit in queue._committed
    ]


@functools.cache
def _loaded_sweep():
    """The loaded cut and its serial sweep, computed once for the tests
    that read them."""
    donor = _saturated_builder()
    donor.run(600)
    assert router_flits(donor)
    assert not any(m.finished() for m in donor.masters.values())
    checkpoint = Checkpoint.capture(donor)
    serial = fork(
        checkpoint, LOADED_OVERRIDES, builder=_saturated_builder, cycles=400,
        processes=0,
    )
    return donor, checkpoint, serial


def _assert_continuations_differ(report):
    completed = [
        entry["metrics"]["completed"] for entry in report["configs"].values()
    ]
    assert len(set(completed)) == len(RATES), completed


def test_fork_matches_cold_runs():
    """The acceptance bar: >= 4 overrides forked from one warm prefix of
    a loaded fabric, each byte-equal to a cold run applying the same
    override at the same cycle."""
    donor, checkpoint, report = _loaded_sweep()
    assert report["fork_cycle"] == 600
    assert list(report["configs"]) == [o.name for o in LOADED_OVERRIDES]
    for override in LOADED_OVERRIDES:
        entry = report["configs"][override.name]
        assert entry["mode"] == "fork"
        cold = run_cold(_saturated_builder, override, 600, 400)
        assert entry["metrics"] == cold, f"{override.name}: fork != cold"
    _assert_continuations_differ(report)

    # Independence without a defensive copy: one checkpoint restored
    # into two SoCs, a restored flit scribbled on in the first — the
    # second, and a third restore made afterwards, still read what was
    # captured.
    def read(soc):
        return [(f.packet_id, f.seq, f.dest, f.vc) for f in router_flits(soc)]

    captured = read(donor)
    first, second, third = (_saturated_builder() for _ in range(3))
    checkpoint.restore_into(first)
    checkpoint.restore_into(second)
    router_flits(first)[0].dest = -1
    checkpoint.restore_into(third)
    assert read(first) != captured
    assert read(second) == read(third) == captured


def test_fork_pool_matches_serial():
    _donor, checkpoint, serial = _loaded_sweep()
    pooled = fork(
        checkpoint, LOADED_OVERRIDES, builder=_saturated_builder, cycles=400,
        processes=2,
    )
    assert pooled == serial
    _assert_continuations_differ(serial)


def test_fork_fault_schedule_override():
    """A what-if fault future imposed on a restored checkpoint equals a
    cold run extending the schedule at the same cycle."""
    donor = _faulted_builder()
    donor.run(1000)
    checkpoint = Checkpoint.capture(donor)
    override = Override(name="extra-fault", apply=_extend_faults)
    report = fork(
        checkpoint, [override], builder=_faulted_builder, cycles=2000
    )
    cold = run_cold(_faulted_builder, override, 1000, 2000)
    assert report["configs"]["extra-fault"]["metrics"] == cold


def test_fork_structural_override_runs_cold():
    def _vc_builder():
        return build("vc-dateline-gals")

    donor = _mixed_builder()
    donor.run(500)
    checkpoint = Checkpoint.capture(donor)
    report = fork(
        checkpoint,
        [
            Override(name="warm", apply=functools.partial(_set_rate, 0.3)),
            Override(name="vc-fabric", build=_vc_builder),
        ],
        builder=_mixed_builder,
        cycles=1000,
    )
    assert report["configs"]["warm"]["mode"] == "fork"
    assert report["configs"]["vc-fabric"]["mode"] == "cold"
    assert report["configs"]["vc-fabric"]["metrics"]["cycle"] == 1500


def test_override_validation():
    with pytest.raises(ValueError):
        Override(name="neither")
    with pytest.raises(ValueError):
        Override(name="both", apply=_extend_faults, build=_mixed_builder)
    donor = _mixed_builder()
    donor.run(10)
    checkpoint = Checkpoint.capture(donor)
    with pytest.raises(ValueError):
        fork(checkpoint, [], builder=_mixed_builder, cycles=10)
    dup = [RATE_OVERRIDES[0], RATE_OVERRIDES[0]]
    with pytest.raises(ValueError):
        fork(checkpoint, dup, builder=_mixed_builder, cycles=10)
