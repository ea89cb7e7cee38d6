"""Ready-frontier ``DmaEngine`` against the scan-based engine it replaced.

``ScanDmaEngine`` below is the pre-frontier engine's progress code kept
as a reference oracle (reading the engine's bound token logs, as the
engine does): every ``poll`` / ``_advance`` /
``lookahead`` / ``done`` / ``diagnose_stall`` rescans the whole program
and re-derives dependency completion with ``all()``.  Both engines are
driven by the same stub-master loop (no SoC, no kernel) over Hypothesis
programs, and must agree on every ``lookahead`` answer, every ``poll``
result and every log (both record through
:class:`dma_logs.RecordingDmaEngine`) — the frontier is an index over
the same state, not a second semantics.  Shrunk counterexamples and the
shapes the frontier could plausibly get wrong are pinned as named cases
at the bottom.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dma_logs import RecordingDmaEngine
from repro.core.transaction import ResponseStatus
from repro.workloads import DmaDescriptor, StreamChannel


# --------------------------------------------------------------------- #
# reference oracle: the scan-based engine (parent commit, verbatim)
# --------------------------------------------------------------------- #
class ScanDmaEngine(RecordingDmaEngine):
    def _deps_complete(self, i):
        cc = self._complete_cycle
        return all(cc[j] is not None for j in self.program[i].after)

    def _compute_due_at(self, i):
        due = self._compute_done[i]
        if due is not None:
            return due
        if not self._deps_complete(i):
            return None
        desc = self.program[i]
        start = max(
            (self._complete_cycle[j] for j in desc.after), default=0
        )
        return start + desc.delay

    def _advance(self, cycle):
        progress = True
        while progress:
            progress = False
            for i, desc in enumerate(self.program):
                if desc.op != "compute" or self._complete_cycle[i] is not None:
                    continue
                if self._compute_done[i] is None:
                    due = self._compute_due_at(i)
                    if due is None:
                        continue
                    self._compute_done[i] = due
                    progress = True
                due = self._compute_done[i]
                if due is not None and cycle >= due:
                    self._complete_cycle[i] = due
                    self.complete_log.append((i, 0, due))
                    for log in self._signal[i]:
                        log.put(cycle)
                    progress = True

    def _burst_eligible(self, i, cycle):
        desc = self.program[i]
        if desc.op == "compute" or self._issued[i] >= desc.bursts:
            return False
        if not self._deps_complete(i):
            return False
        need = self._issued[i] + 1
        return all(log.level(cycle) >= need for log in self._wait[i])

    def poll(self, cycle):
        self._advance(cycle)
        if self._halted is not None:
            return None
        for i in range(len(self.program)):
            if self._burst_eligible(i, cycle):
                burst = self._issued[i]
                txn = self._make_txn(i, burst)
                self._issued[i] += 1
                self._txn_desc[txn.txn_id] = i
                self.issue_log.append((i, burst, cycle))
                return txn
        return None

    def lookahead(self, cycle):
        if self._halted is not None:
            return None
        horizon = None
        for i, desc in enumerate(self.program):
            if desc.op == "compute":
                if self._complete_cycle[i] is not None:
                    continue
                due = self._compute_due_at(i)
                if due is None:
                    continue
                if due <= cycle:
                    return ("at", cycle)
                horizon = due if horizon is None else min(horizon, due)
                continue
            if self._issued[i] >= desc.bursts:
                continue
            if self._burst_eligible(i, cycle):
                return ("at", cycle)
            if desc.wait:
                need = self._issued[i] + 1
                wait = self._wait[i]
                if all(log.total() >= need for log in wait):
                    at = max(
                        [cycle] + [log.visible_at(need) for log in wait]
                    )
                    horizon = at if horizon is None else min(horizon, at)
        if horizon is not None:
            return ("at", horizon)
        return None

    def done(self):
        if self._halted is not None:
            return False
        if self._txn_desc:
            return False
        return all(c is not None for c in self._complete_cycle)

    def diagnose_stall(self):
        if self._halted is not None:
            return f"{self.name}: halted — {self._halted}"
        if self.done():
            return None
        reasons = []
        for i, desc in enumerate(self.program):
            if self._complete_cycle[i] is not None:
                continue
            if desc.op == "compute":
                if self._compute_due_at(i) is None:
                    reasons.append(
                        f"desc {i} {desc.describe()} waiting on "
                        f"after={desc.after}"
                    )
                continue
            inflight = self._issued[i] - self._done_bursts[i]
            if inflight:
                reasons.append(
                    f"desc {i} {desc.describe()}: {inflight} burst(s) "
                    f"in flight"
                )
            elif not self._deps_complete(i):
                reasons.append(
                    f"desc {i} {desc.describe()} waiting on "
                    f"after={desc.after}"
                )
            elif desc.wait:
                need = self._issued[i] + 1
                starved = [
                    f"{log.name!r} holds {log.total()}"
                    for log in self._wait[i]
                    if log.total() < need
                ]
                reasons.append(
                    f"desc {i} {desc.describe()} starved: burst "
                    f"{self._issued[i]} needs {need} token(s) but "
                    f"{'; '.join(starved) or 'tokens are pending'}"
                )
        if not reasons:
            reasons.append("unfinished (no further diagnosis)")
        return f"{self.name}: " + "; ".join(reasons)


# --------------------------------------------------------------------- #
# stub master: ProtocolMaster's poll discipline without a SoC
# --------------------------------------------------------------------- #
class _StubMaster:
    """Delivers completions, then asks ``lookahead`` and polls.

    With ``obey`` set it skips the poll whenever the hint says "later"
    or "dormant" and nothing woke it (a completion or a channel put), as
    the activity kernel does; otherwise it polls every cycle like the
    strict kernel.  Completion latency and status are drawn at issue.
    ``stalls`` (its own stream, one draw per tick) models a master held
    on socket backpressure: completions are delivered but nothing polls,
    so computes are observed after their due cycle.
    """

    def __init__(self, engine, channels, rng, stalls, recipe):
        self.engine = engine
        self.rng = rng
        self.stalls = stalls
        self.obey = recipe["obey"]
        self.error_rate = recipe["error_rate"]
        self.stall_rate = recipe["stall_rate"]
        self.inflight = []  # (due cycle, txn_id, status), issue order
        self.woken = False
        self.polls = 0
        engine.bind_master(self, channels)

    def wake(self):
        self.woken = True

    def tick(self, cycle, trace):
        engine = self.engine
        due = [entry for entry in self.inflight if entry[0] <= cycle]
        for entry in due:
            self.inflight.remove(entry)
            engine.notify_complete(entry[1], cycle, entry[2])
            self.woken = True
        if self.stalls.random() < self.stall_rate:
            trace.append((cycle, engine.name, "stalled", None, engine.done()))
            return
        hint = engine.lookahead(cycle)
        polled = None
        if not self.obey or self.woken or (
            hint is not None and hint[1] <= cycle
        ):
            self.woken = False
            self.polls += 1
            txn = engine.poll(cycle)
            if txn is not None:
                desc, burst, _ = engine.issue_log[-1]
                polled = (desc, burst, txn.opcode, txn.address, txn.beats,
                          txn.beat_bytes, txn.data, txn.priority, txn.txn_id)
                status = (
                    ResponseStatus.SLVERR
                    if self.rng.random() < self.error_rate
                    else ResponseStatus.OKAY
                )
                self.inflight.append(
                    (cycle + self.rng.randint(1, 9), txn.txn_id, status)
                )
                self.woken = True  # a master re-polls after an issue
        trace.append((cycle, engine.name, hint, polled, engine.done()))


def drive(engine_cls, recipe, max_cycles=300):
    """Build ``recipe`` with ``engine_cls`` and run it to completion (or
    ``max_cycles`` — starved and halted programs are compared too).  The
    engines share one token log per channel name, as a SoC's do."""
    declared = [
        StreamChannel(f"ch{k}", initial=credit)
        for k, credit in enumerate(recipe["credits"])
    ]
    channels = {}  # name -> TokenLog, filled as the engines bind
    txn_ids = itertools.count()  # what a SoC hands its sources
    rng = random.Random(recipe["seed"])
    stalls = random.Random(recipe["seed"] + 1)
    masters = []
    for e, spec in enumerate(recipe["engines"]):
        program = [
            DmaDescriptor(
                op,
                wait=[declared[k] for k in wait],
                signal=[declared[k] for k in signal],
                **fields,
            )
            for op, wait, signal, fields in spec["program"]
        ]
        engine = engine_cls(f"e{e}", program, priority=e)
        engine.txn_ids = txn_ids
        masters.append(_StubMaster(engine, channels, rng, stalls, recipe))
    trace = []
    for cycle in range(max_cycles):
        for master in masters:
            master.tick(cycle, trace)
        if all(m.engine.done() for m in masters):
            break
    final = [
        dict(
            issue_log=m.engine.issue_log,
            complete_log=m.engine.complete_log,
            completions=m.engine.completions,
            compute_done=m.engine._compute_done,
            complete_cycle=m.engine._complete_cycle,
            bursts_completed=m.engine.bursts_completed,
            halted=m.engine._halted,
            done=m.engine.done(),
            stall=m.engine.diagnose_stall(),
        )
        for m in masters
    ]
    puts = {name: list(log._puts) for name, log in channels.items()}
    return trace, final, puts, masters


def assert_engines_agree(recipe):
    new = drive(RecordingDmaEngine, recipe)
    old = drive(ScanDmaEngine, recipe)
    for got, want in zip(new[0], old[0]):
        assert got == want  # first diverging cycle, not a whole-trace diff
    assert new[:3] == old[:3]
    return new


# --------------------------------------------------------------------- #
# Hypothesis programs
# --------------------------------------------------------------------- #
N_CHANNELS = 3


@st.composite
def descriptor(draw, index):
    op = draw(st.sampled_from(["read", "write", "compute"]))
    # Backward edges only; duplicates, fan-in and fan-out all allowed.
    after = tuple(
        draw(st.lists(st.integers(0, index - 1), max_size=3))
    ) if index else ()
    channel_ids = st.lists(
        st.integers(0, N_CHANNELS - 1), max_size=2, unique=True
    )
    signal = draw(channel_ids)
    if op == "compute":
        return op, [], signal, dict(
            delay=draw(st.sampled_from([0, 0, 1, 3, 12])), after=after
        )
    return op, draw(channel_ids), signal, dict(
        address=draw(st.integers(0, 63)) * 64,
        beats=draw(st.integers(1, 4)),
        bursts=draw(st.integers(1, 3)),
        ring=draw(st.sampled_from([None, None, 1, 2])),
        priority=draw(st.sampled_from([None, 2])),
        pattern=draw(st.integers(0, 255)),
        after=after,
    )


@st.composite
def recipes(draw):
    engines = []
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(1, 9))
        engines.append(dict(program=[draw(descriptor(i)) for i in range(size)]))
    return dict(
        engines=engines,
        credits=[draw(st.integers(0, 3)) for _ in range(N_CHANNELS)],
        seed=draw(st.integers(0, 2**16)),
        obey=draw(st.booleans()),
        error_rate=draw(st.sampled_from([0.0, 0.0, 0.15])),
        stall_rate=draw(st.sampled_from([0.0, 0.3])),
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(recipes())
def test_frontier_engine_matches_scan_engine(recipe):
    assert_engines_agree(recipe)


# --------------------------------------------------------------------- #
# named cases
# --------------------------------------------------------------------- #
def _recipe(*programs, credits=(0, 0, 0), obey=False, error_rate=0.0,
            stall_rate=0.0, seed=5):
    return dict(
        engines=[dict(program=list(p)) for p in programs],
        credits=list(credits), seed=seed, obey=obey, error_rate=error_rate,
        stall_rate=stall_rate,
    )


def _burst(op, *, after=(), wait=(), signal=(), **fields):
    return op, list(wait), list(signal), dict(after=after, **fields)


def _compute(delay, *, after=(), signal=()):
    return "compute", [], list(signal), dict(delay=delay, after=after)


NAMED = {
    # A dependency *count* must not wait twice on a duplicated edge.
    "duplicate_after_edges": _recipe([
        _burst("read"),
        _burst("write", after=(0, 0)),
        _compute(2, after=(1, 0, 1)),
    ]),
    # delay=0 computes complete inside the _advance call that releases
    # them, in ascending index order, whatever order they were released.
    "zero_delay_compute_cascade": _recipe([
        _burst("read", bursts=2),
        _compute(0, after=(0,), signal=(0,)),
        _compute(0, after=(1,), signal=(0,)),
        _compute(0, after=(0,), signal=(1,)),
        _compute(0, after=(2, 3)),
        _burst("write", after=(4,), wait=(0, 1)),
    ]),
    # Root computes (no deps) are stamped at the first poll, due = delay.
    "root_compute_fan_out": _recipe([
        _compute(3),
        _burst("read", after=(0,)),
        _burst("write", after=(0,)),
        _compute(1, after=(1, 2)),
    ], obey=True),
    # A stalled master observes computes late: completion is stamped at
    # the due cycle, the signal token at the observing cycle.
    "compute_observed_late": _recipe([
        _compute(1, signal=(0,)),
        _compute(0, after=(0,), signal=(1,)),
        _burst("read", wait=(0, 1)),
    ], stall_rate=0.7, seed=2),
    # All wait tokens are preloaded but the after= dependency is still in
    # flight: lookahead must keep answering "now" (early harmless poll).
    "tokens_ready_deps_pending": _recipe([
        _burst("read", bursts=3),
        _burst("write", after=(0,), wait=(0,), bursts=2),
    ], credits=(2, 0, 0), obey=True),
    # Lowest index first among several open descriptors, multi-burst.
    "fan_out_issue_priority": _recipe([
        _burst("read"),
        _burst("write", after=(0,), bursts=3, ring=2),
        _burst("read", after=(0,), bursts=2),
        _burst("write", after=(0,), bursts=2),
        _compute(1, after=(1, 2, 3)),
    ]),
    # Producer/consumer credit loop across two engines.
    "stream_pair_with_credit": _recipe(
        [_burst("write", bursts=3, ring=2, wait=(1,), signal=(0,))],
        [_burst("read", bursts=3, ring=2, wait=(0,), signal=(1,)),
         _compute(4, after=(0,), signal=(2,))],
        credits=(0, 2, 0), obey=True,
    ),
    # A wait that can never be satisfied: identical stall diagnosis.
    "starved_wait": _recipe([
        _burst("read"),
        _burst("write", after=(0,), wait=(2,)),
        _compute(1, after=(1,)),
    ]),
    # Error completions: halt freezes issue but computes keep stamping.
    "halt_on_error": _recipe([
        _burst("read", bursts=3),
        _compute(2, signal=(0,)),
        _burst("write", after=(0, 1)),
    ], error_rate=1.0, seed=11),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_case_matches_scan_engine(name):
    _, final, _, _ = assert_engines_agree(NAMED[name])
    finished = all(state["done"] for state in final)
    assert finished == (name not in ("starved_wait", "halt_on_error"))


def test_named_cases_reach_their_corners():
    """The cases above exercise what their comments say they do."""
    trace, final, _, _ = drive(RecordingDmaEngine, NAMED["tokens_ready_deps_pending"])
    first_write = next(c for d, _, c in final[0]["issue_log"] if d == 1)
    idle = [(cycle, hint) for cycle, _, hint, polled, _ in trace
            if polled is None and cycle < first_write]
    assert idle and all(hint == ("at", cycle) for cycle, hint in idle)

    _, final, _, _ = drive(RecordingDmaEngine, NAMED["zero_delay_compute_cascade"])
    cascade = [(d, c) for d, _, c in final[0]["complete_log"] if 1 <= d <= 4]
    assert [d for d, _ in cascade] == [1, 2, 3, 4]
    assert len({c for _, c in cascade}) == 1

    _, final, puts, _ = drive(RecordingDmaEngine, NAMED["compute_observed_late"])
    assert final[0]["complete_cycle"][:2] == [1, 1] and puts["ch0"][0] > 1

    _, final, _, _ = drive(RecordingDmaEngine, NAMED["halt_on_error"])
    assert final[0]["halted"] is not None
    assert final[0]["compute_done"][1] == 2


# --------------------------------------------------------------------- #
# scaling: work per poll is O(frontier), not O(program)
# --------------------------------------------------------------------- #
class _CountingProgram(list):
    """``engine.program`` stand-in that counts descriptor visits."""

    visits = 0

    def __getitem__(self, index):
        self.visits += 1
        return super().__getitem__(index)

    def __iter__(self):
        for desc in super().__iter__():
            self.visits += 1
            yield desc


def _chain_recipe(links):
    program = []
    for link in range(links):
        base = len(program)
        program.append(_burst("read", after=(base - 1,) if link else ()))
        program.append(_compute(4, after=(base,)))
        program.append(_burst("write", after=(base + 1,)))
    return _recipe(program, obey=True)


def _visits_per_poll(engine_cls, links):
    class Counted(engine_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.program = _CountingProgram(self.program)

    _, final, _, masters = drive(Counted, _chain_recipe(links),
                                 max_cycles=40 * links)
    assert final[0]["done"], "chain did not finish"
    master = masters[0]
    return master.engine.program.visits / master.polls


def test_descriptor_visits_per_poll_do_not_grow_with_program_length():
    short = _visits_per_poll(RecordingDmaEngine, 40)
    long = _visits_per_poll(RecordingDmaEngine, 400)
    assert long <= short * 1.05 + 0.5, (short, long)
    assert long < 12
    # The instrument does see a rescan: the scan engine visits the whole
    # 120-descriptor program several times per poll.
    assert _visits_per_poll(ScanDmaEngine, 40) > 120
