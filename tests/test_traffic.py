"""Unit tests for traffic sources."""

import itertools

import pytest

from repro.core.transaction import Opcode, ResponseStatus, make_read, make_write
from repro.ip import TrafficSpec
from repro.sim.fingerprint import fingerprint_soc
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec

OK = ResponseStatus.OKAY


def built(**knobs):
    """The source ``knobs`` describe, polled on its own: it draws ids
    from a stream of its own (a master hands it the SoC's)."""
    source = TrafficSpec(**knobs).build()
    source.txn_ids = itertools.count()
    return source


class TestScripted:
    def test_issues_in_order_then_done(self):
        intents = [make_read(0x10 * i) for i in range(3)]
        src = built(kind="scripted", intents=intents)
        polled = [src.poll(c) for c in range(4)]
        assert polled[:3] == intents
        assert polled[3] is None
        assert src.done()


    def test_a_run_leaves_the_spec_as_written(self):
        """The source issues copies of the spec's intents: its master
        stamps ids on them and rewrites their opcode (an OCP master posts
        a STORE), so the spec reads as written after a run, and a second
        build from it runs as the first did."""
        store = make_write(0x40, [7])
        builder = SocBuilder()
        builder.add_initiator(InitiatorSpec(
            "m0", "OCP", TrafficSpec(kind="scripted", intents=[store])))
        builder.add_target(TargetSpec("mem", size=0x1000))
        prints = []
        for _ in range(2):
            soc = builder.build()
            soc.run_to_completion()
            (issued,) = soc.masters["m0"].traffic.intents
            assert issued.opcode is Opcode.STORE_POSTED and issued.txn_id == 0
            prints.append(fingerprint_soc(soc))
        assert store.opcode is Opcode.STORE and store.txn_id == -1
        assert prints[0] == prints[1]


class TestPoisson:
    def test_reproducible_with_seed(self):
        def generate():
            src = built(kind="poisson", master="m", seed=9, count=50,
                        pairs=[(0, 0x1000)], rate=1.0)
            return [src.poll(c).describe() for c in range(50)]
        assert generate() == generate()

    def test_rate_throttles(self):
        src = built(kind="poisson", master="m", seed=1, count=1000,
                    pairs=[(0, 0x1000)], rate=0.1)
        issued = sum(1 for c in range(1000) if src.poll(c) is not None)
        assert 40 < issued < 250  # ~100 expected

    def test_addresses_within_ranges(self):
        src = built(kind="poisson", master="m", seed=2, count=200,
                    pairs=[(0x100, 0x100)], rate=1.0,
                    burst_beats=(1, 4, 8))
        while not src.done():
            txn = src.poll(0)
            if txn is None:
                continue
            for addr in txn.beat_addresses():
                assert 0x100 <= addr < 0x200

    def test_threads_and_tags_spread(self):
        src = built(kind="poisson", master="m", seed=3, count=100,
                    pairs=[(0, 0x1000)], rate=1.0, threads=4,
                    tags=4)
        threads, tags = set(), set()
        while not src.done():
            txn = src.poll(0)
            if txn:
                threads.add(txn.thread)
                tags.add(txn.txn_tag)
        assert len(threads) == 4 and len(tags) == 4

    def test_bad_params(self):
        with pytest.raises(ValueError):
            TrafficSpec(kind="poisson", master="m", seed=1, count=10,
                        pairs=[(0, 64)], rate=0.0).build()
        with pytest.raises(ValueError):
            TrafficSpec(kind="poisson", master="m", seed=1, count=10,
                        pairs=[], rate=0.5).build()


class TestDependent:
    def test_waits_for_completion_and_think_time(self):
        src = built(kind="dependent", master="m", seed=1, count=2,
                    pairs=[(0, 0x100)], think_cycles=5)
        first = src.poll(0)
        assert first is not None
        assert src.poll(1) is None  # waiting
        src.notify_complete(first.txn_id, 10, OK)
        assert src.poll(12) is None  # still thinking
        assert src.poll(15) is not None

    def test_done_only_after_last_completion(self):
        src = built(kind="dependent", master="m", seed=1, count=1,
                    pairs=[(0, 0x100)])
        txn = src.poll(0)
        assert not src.done()
        src.notify_complete(txn.txn_id, 5, OK)
        assert src.done()


class TestStream:
    def test_covers_region_contiguously(self):
        src = built(kind="stream", master="dma", base=0x100,
                    bytes_total=256, burst_beats=8, beat_bytes=4)
        addresses = []
        while not src.done():
            txn = src.poll(0)
            addresses.extend(txn.beat_addresses())
        assert addresses == [0x100 + 4 * i for i in range(64)]

    def test_gap_cycles_pace_bursts(self):
        src = built(kind="stream", master="dma", bytes_total=128,
                    gap_cycles=10)
        assert src.poll(0) is not None
        assert src.poll(5) is None
        assert src.poll(10) is not None

    def test_read_mode_and_priority(self):
        src = built(kind="stream", master="vid", bytes_total=64,
                    write=False, priority=2)
        txn = src.poll(0)
        assert txn.opcode is Opcode.LOAD
        assert txn.priority == 2

    def test_posted_mode(self):
        src = built(kind="stream", master="dma", bytes_total=64,
                    posted=True)
        assert src.poll(0).opcode is Opcode.STORE_POSTED


class TestSyncWorkload:
    def _drive(self, src, responder):
        """Run the state machine with a scripted responder."""
        cycle = 0
        while not src.done() and cycle < 1000:
            txn = src.poll(cycle)
            if txn is not None:
                status = responder(txn)
                src.notify_complete(txn.txn_id, cycle, status)
            cycle += 1
        return cycle

    def test_lock_style_sequence(self):
        src = built(kind="sync", master="m", style="lock",
                    work_addr=0x100, iterations=2, work_ops=2)
        ops = []
        def responder(txn):
            ops.append(txn.opcode)
            return OK
        self._drive(src, responder)
        assert src.sections_completed == 2
        # per iteration: READEX, work reads, locked release
        assert ops[0] is Opcode.READEX
        assert Opcode.STORE_COND_LOCKED in ops

    def test_excl_style_retries_on_failure(self):
        src = built(kind="sync", master="m", style="excl",
                    work_addr=0x100, iterations=1, work_ops=1)
        fail_once = {"left": 1}
        def responder(txn):
            if txn.excl and txn.opcode.is_write:
                if fail_once["left"]:
                    fail_once["left"] -= 1
                    return OK  # exclusive store failed
                return ResponseStatus.EXOKAY
            if txn.excl:
                return ResponseStatus.EXOKAY
            return OK
        self._drive(src, responder)
        assert src.retries == 1
        assert src.sections_completed == 1

    def test_invalid_style(self):
        with pytest.raises(ValueError):
            built(kind="sync", master="m", style="spin")
