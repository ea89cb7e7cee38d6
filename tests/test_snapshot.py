"""Checkpoint/restore and fork-sweep contracts.

A checkpoint is only worth having if a restored
run is *byte-identical* to an uninterrupted one — same trace stream,
same queue counters, same histograms, same memory images — at every
layer and from every adversarial snapshot point: mid-wormhole,
mid-CDC-crossing, and on a fully parked timing wheel.  These tests pin
that on both kernels, and pin the fork sweep's warm == cold equivalence
on top.
"""

import functools
import pickle
import struct
from collections import Counter

import pytest

import repro.sweep.checkpoint as checkpoint_module
from differential import KERNELS, assert_same, build, observe, run
from repro.ip import TrafficSeedError, TrafficSpec
from repro.sim.component import Component
from repro.sim.trace import Tracer
from repro.sweep import (
    Checkpoint,
    CheckpointCaptureError,
    CheckpointFormatError,
    CheckpointMismatchError,
    Override,
    fork,
)
from repro.sweep.fork import run_cold


@pytest.mark.parametrize("kernel", KERNELS)
def test_mid_wormhole_roundtrip(kernel):
    """Cycle 850 of the lock workload: wormholes in flight, router LOCK
    ownership held, arbiters mid-rotation."""
    assert_same(run("legacy-lock", 3000, kernel, cut=850),
                run("legacy-lock", 3000, kernel))


def test_mid_cdc_crossing_roundtrip():
    """Cycle 777 of the GALS build: phits mid-shift on serialized links,
    entries maturing inside CDC synchronizers, three clock domains."""
    assert_same(run("gals-serialized-links", 5000, cut=777),
                run("gals-serialized-links", 5000))


def test_parked_masters_and_returning_credits_roundtrip():
    """Cycle 500 of the saturated VC torus: masters parked on their own
    outstanding limit (the captured ``_limit_blocked``) and credits on
    their way back to the VC links' senders (``_returning``)."""

    def probe(soc):
        parked = sorted(
            name for name, master in soc.masters.items()
            if master._limit_blocked and not master._scheduled
        )
        returning = [
            count
            for link in soc.fabric.physical_links for count in link._returning
        ]
        return parked, returning, sum(returning)

    assert_same(run("vc-torus-saturated", 1000, cut=500, probe=probe),
                run("vc-torus-saturated", 1000))


def test_aliases_inside_the_tree_survive_the_pickle():
    """Cycle 626 of the saturated mixed SoC on an adaptive torus: an
    NIU's ``native.record`` *is* its socket's head record and the flit
    of a router input VC's failed-allocation cache (its record's
    ``fail``) *is* its input queue's front flit.  One pickle of the
    whole tree (one memo) keeps each pair one object."""

    def probe(soc):
        peeked = sorted(
            name for name, niu in soc.initiator_nius.items()
            if any(
                queue._committed and queue._committed[0] is niu.native.record
                for queue in niu._native_req_queues
            )
        )
        blocked = sorted(
            (router.name, (inp.port, inp.vc))
            for plane in soc.fabric._planes
            for router in plane.routers.values()
            for inp in router._sorted_inputs
            if inp.fail is not None
            and inp.queue._committed
            and inp.fail[1] is inp.queue._committed[0]
        )
        return peeked, blocked

    assert_same(run("saturated-adaptive-torus", 900, cut=626, probe=probe),
                run("saturated-adaptive-torus", 900))


@pytest.mark.parametrize("restore", ["rebuilt", "same-soc"])
def test_reorder_buffer_gap_roundtrip(restore):
    """Cycle 330 of the adaptive hotspot SoC: one target's ejection port
    holds packets behind a gap (``_rob_blocked`` clear, nothing to do
    until a flit arrives) while the hot target's holds a releasable
    packet refused delivery space (``_rob_blocked`` set): a rebuilt SoC
    and the donor itself, restored after running on, both read the
    flags as captured and continue byte-identically."""

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
    short-circuit).  The memo travels with the table version it is
    stamped with, so a rebuilt SoC *and* the donor itself, restored
    after running on, both continue byte-identically."""
    total, at = 2000, 1500
    donor = build("saturated-mixed")
    donor.run(at)
    niu = donor.initiator_nius["io_bvci"]
    assert niu._refused_txn is niu.native.decoded is not None
    assert niu._refused_version == niu.table.version
    assert any(master._limit_blocked for master in donor.masters.values())
    checkpoint = Checkpoint.capture(donor)
    donor.run(97)  # moves the donor's memo and table version on

    for resumed in (build("saturated-mixed"), donor):
        checkpoint.restore_into(resumed)
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


def _instrument(soc, counts):
    """Counting closures on every component's ``tick`` and every traffic
    source's ``poll``, set on the instances (as the benchmark's layer
    table wraps them); returns ``soc``."""
    for component in soc.sim.components:
        def tick(cycle, _tick=component.tick, _name=component.name):
            counts[_name] += 1
            _tick(cycle)

        component.tick = tick
    for name, master in soc.masters.items():
        def poll(*args, _poll=master.traffic.poll, _name=f"{name}.poll"):
            counts[_name] += 1
            return _poll(*args)

        master.traffic.poll = poll
    return soc


def test_instrumentation_survives_a_round_trip():
    """Closures on the donor's instances do not pickle and are left out
    of the capture; the rebuilt target keeps its own, which count, call
    for call, what the donor's count over the same cycles, and the run
    ends on the uninterrupted fingerprint."""
    donor_counts, counts = Counter(), Counter()
    donor = _instrument(build("mixed-protocols"), donor_counts)
    donor.run(137)
    checkpoint = Checkpoint.capture(donor)
    at_cut = Counter(donor_counts)
    donor.run(463)  # first: the two SoCs draw ids from one global stream
    resumed = _instrument(build("mixed-protocols"), counts)
    checkpoint.restore_into(resumed)
    assert not counts
    resumed.run(463)
    assert counts == donor_counts - at_cut
    assert sum(counts.values()) > 0 and any(k.endswith(".poll") for k in counts)
    assert_same(observe(resumed), observe(donor))


# --------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------- #
def test_cached_flow_histogram_handles_survive_restore():
    """Ejection ports cache their per-flow histogram handles; after a
    restore into the *same* SoC they must point at the registered objects
    again (the registry and the caches travel under one memo), so
    flow_stats() after capture -> run -> restore -> deliver equals the
    uninterrupted run."""
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


def test_checkpoint_bytes_roundtrip():
    soc = build("mixed-protocols")
    soc.run(1000)
    checkpoint = Checkpoint.capture(soc)

    clone = Checkpoint.from_bytes(checkpoint.to_bytes())
    assert clone.cycle == 1000
    resumed = build("mixed-protocols")
    clone.restore_into(resumed)
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

    # v3 wire format: magic, version byte, cycle, payload length, payload.
    header = len(b"repro-ckpt") + 1 + 8 + 8
    v1_blob = b"repro-ckpt\x01" + good[header:]
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
    """``pickle`` as :mod:`repro.sweep.checkpoint` sees it, with every
    call that costs a pass over the state counted: the pickler and the
    unpickler it makes, and ``dumps`` / ``loads``.  ``Unpickler`` is a
    class, so an unpickler of a subclass made from it counts too."""

    def __init__(self):
        calls = self.calls = {"Pickler": 0, "Unpickler": 0, "dumps": 0, "loads": 0}

        class Unpickler(pickle.Unpickler):
            def __init__(self, *args):
                calls["Unpickler"] += 1
                super().__init__(*args)

        self.Unpickler = Unpickler

    def Pickler(self, *args):
        self.calls["Pickler"] += 1
        return pickle.Pickler(*args)

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
    budget = {"Pickler": 1, "Unpickler": 4, "dumps": 0, "loads": 0}
    assert counting.calls == budget
    blob = checkpoint.to_bytes()
    assert checkpoint.to_bytes() == blob
    assert Checkpoint.from_bytes(blob).cycle == 200
    assert counting.calls == budget


# --------------------------------------------------------------------- #
# named errors
# --------------------------------------------------------------------- #
def test_restore_into_incongruent_build():
    soc = build("mixed-protocols")
    soc.run(10)
    checkpoint = Checkpoint.capture(soc)
    other = build("legacy-lock")
    with pytest.raises(CheckpointMismatchError) as refused:
        checkpoint.restore_into(other)
    unknown, missing = str(refused.value).split("missing")
    assert "component 'cpu_ahb'" in unknown and "component '" in missing


@pytest.mark.parametrize("kernel", KERNELS)
def test_restore_into_another_kernel_or_tracing_is_refused(kernel):
    """The kernel mode and tracing are attributes a checkpoint carries;
    a restore refuses a build that differs rather than switch it."""
    soc = build("mixed-protocols", kernel)
    soc.run(10)
    checkpoint = Checkpoint.capture(soc)
    other = "strict" if kernel == "activity" else "activity"
    with pytest.raises(CheckpointMismatchError, match="'strict'"):
        checkpoint.restore_into(build("mixed-protocols", other))
    untraced = build("mixed-protocols", kernel)
    assert untraced.sim.trace.enabled
    untraced.sim.trace = Tracer(enabled=False)
    with pytest.raises(CheckpointMismatchError, match="'tracing'"):
        checkpoint.restore_into(untraced)


class _SetStateProbe:
    """A value with its own ``__setstate__``, which a restore must run."""

    def __init__(self):
        self.restored = False

    def __setstate__(self, state):
        self.__dict__.update(state, restored=True)


def test_a_value_with_setstate_is_restored_through_it():
    soc = build("mixed-protocols")
    soc.run(10)
    soc.sim.probe = _SetStateProbe()
    checkpoint = Checkpoint.capture(soc)
    fresh = build("mixed-protocols")
    checkpoint.restore_into(fresh)
    assert fresh.sim.probe.restored and not soc.sim.probe.restored


class _CallbackProbe(Component):
    """A user component holding a lambda, which no pickle takes."""

    def __init__(self, name):
        super().__init__(name)
        self.on_tick = lambda cycle: None

    def tick(self, cycle):
        self.on_tick(cycle)


def test_capture_names_the_component_whose_state_does_not_pickle():
    soc = build("mixed-protocols")
    soc.sim.add(_CallbackProbe("user.probe"))
    soc.run(10)
    with pytest.raises(CheckpointCaptureError, match="component 'user.probe'"):
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
        Override(name="both", apply=functools.partial(_set_rate, 0.3),
                 build=_mixed_builder)
    donor = _mixed_builder()
    donor.run(10)
    checkpoint = Checkpoint.capture(donor)
    with pytest.raises(ValueError):
        fork(checkpoint, [], builder=_mixed_builder, cycles=10)
    dup = [RATE_OVERRIDES[0], RATE_OVERRIDES[0]]
    with pytest.raises(ValueError):
        fork(checkpoint, dup, builder=_mixed_builder, cycles=10)
