"""Unit tests for memory targets and the byte store."""

import random

from hypothesis import given
from hypothesis import strategies as st

from differential import WINDOWS, build, run
from repro.core.transaction import ResponseStatus
from repro.ip.slaves import ByteStore, MemoryDevice
from repro.protocols.base import SlaveRequest, SlaveSocket
from repro.sim.kernel import Simulator
from repro.sweep import Checkpoint


class DictByteStore:
    """The reference store: one ``{offset: byte}`` dict entry per byte
    written.  :class:`ByteStore` must read, count and image exactly as
    this does; its image is the dict laid out as two arrays ending at
    the highest byte written, a byte never written 0 in both."""

    def __init__(self):
        self._bytes = {}

    def write_beat(self, offset, value, beat_bytes):
        for i in range(beat_bytes):
            self._bytes[offset + i] = (value >> (8 * i)) & 0xFF

    def read_beat(self, offset, beat_bytes):
        value = 0
        for i in range(beat_bytes):
            value |= self._bytes.get(offset + i, 0) << (8 * i)
        return value

    def image(self):
        end = max(self._bytes, default=-1) + 1
        data, written = bytearray(end), bytearray(end)
        for offset, byte in self._bytes.items():
            data[offset], written[offset] = byte, 1
        return data.hex(), written.hex()

    def __len__(self):
        return len(self._bytes)


class TestByteStore:
    def test_roundtrip(self):
        store = ByteStore()
        store.write_beat(0x10, 0xDEADBEEF, 4)
        assert store.read_beat(0x10, 4) == 0xDEADBEEF

    def test_unwritten_reads_zero(self):
        assert ByteStore().read_beat(0x0, 8) == 0

    def test_mixed_widths_little_endian(self):
        store = ByteStore()
        store.write_beat(0x0, 0x11223344, 4)
        assert store.read_beat(0x0, 1) == 0x44
        assert store.read_beat(0x2, 2) == 0x1122
        store.write_beat(0x1, 0xFF, 1)
        assert store.read_beat(0x0, 4) == 0x1122FF44

    @given(
        offset=st.integers(min_value=0, max_value=256),
        value=st.integers(min_value=0, max_value=(1 << 64) - 1),
        width=st.sampled_from([1, 2, 4, 8]),
    )
    def test_property_roundtrip_any_width(self, offset, value, width):
        store = ByteStore()
        store.write_beat(offset, value & ((1 << (8 * width)) - 1), width)
        assert store.read_beat(offset, width) == value & (
            (1 << (8 * width)) - 1
        )

    @given(
        contents=st.dictionaries(st.integers(0, 63), st.integers(0, 255)),
        rng=st.randoms(use_true_random=False),
    )
    def test_property_image_is_the_bytes_not_how_they_were_written(
        self, contents, rng
    ):
        """The same bytes written byte by byte in order, or in a shuffled
        order as beats of any width, give equal images; writing a zero
        where no byte was written reads the same but images differently."""
        bytewise, beatwise = ByteStore(), ByteStore()
        for offset in sorted(contents):
            bytewise.write_beat(offset, contents[offset], 1)
        offsets = list(contents)
        rng.shuffle(offsets)
        for offset in offsets:
            width = rng.choice((1, 2, 4, 8))
            span = range(offset, offset + width)
            if not all(o in contents for o in span):
                span = range(offset, offset + 1)
            value = sum(contents[o] << (8 * i) for i, o in enumerate(span))
            beatwise.write_beat(offset, value, len(span))
        assert beatwise.image() == bytewise.image()
        hole = next((o for o in range(64) if o not in contents), None)
        if hole is not None:
            beatwise.write_beat(hole, 0, 1)
            assert beatwise.read_beat(hole, 1) == bytewise.read_beat(hole, 1)
            assert beatwise.image() != bytewise.image()

    def test_a_fingerprints_memory_is_one_value_per_store(self):
        """A fingerprint carries each memory as its store's two hex
        strings, not as one entry per byte written."""
        window = WINDOWS["mixed-protocols"]
        memory = run("mixed-protocols", window).fingerprint["memory"]
        assert sorted(memory) == ["dram", "sram"]
        for image in memory.values():
            assert isinstance(image, tuple) and len(image) == 2
            data, written = (bytes.fromhex(text) for text in image)
            assert len(data) == len(written)
            assert written.count(1) > 0 and set(written) <= {0, 1}

    def test_matches_the_dict_reference(self):
        """Seeded differential against :class:`DictByteStore`: writes of
        every beat width with values wider than the beat (zeros
        included), reads that reach bytes never written and past the
        highest one, then a checkpoint restored into a rebuilt SoC."""
        rng = random.Random(20260)
        soc = build("mixed-protocols")
        store, reference = soc.memories["dram"].store, DictByteStore()
        reads_of_unwritten = 0
        for _ in range(2500):
            width = rng.choice((1, 2, 4, 8))
            offset = rng.randrange(0x2000)
            if rng.random() < 0.5:
                value = rng.choice((0, rng.getrandbits(8 * width + 24)))
                store.write_beat(offset, value, width)
                reference.write_beat(offset, value, width)
            else:
                assert store.read_beat(offset, width) == reference.read_beat(
                    offset, width
                )
                reads_of_unwritten += any(
                    offset + i not in reference._bytes for i in range(width)
                )
        assert reads_of_unwritten > 500
        assert len(store) == len(reference)
        assert store.image() == reference.image()
        assert 0 in reference._bytes.values()  # written zeros are kept
        checkpoint = Checkpoint.capture(soc)
        restored = build("mixed-protocols")
        checkpoint.restore_into(restored)
        fresh = restored.memories["dram"].store
        assert fresh.image() == reference.image()
        assert len(fresh) == len(reference)
        assert [fresh.read_beat(a, 8) for a in range(0, 0x2010, 5)] == [
            reference.read_beat(a, 8) for a in range(0, 0x2010, 5)
        ]

    def test_snapshot_does_not_follow_later_writes(self):
        soc = build("mixed-protocols")
        store = soc.memories["dram"].store
        store.write_beat(0x0, 0x1122, 2)
        checkpoint = Checkpoint.capture(soc)
        store.write_beat(0x0, 0xFFFFFFFF, 4)
        restored = build("mixed-protocols")
        checkpoint.restore_into(restored)
        assert restored.memories["dram"].store.image() == ("2211", "0101")


def make_memory(sim, **kwargs):
    socket = SlaveSocket(sim, "mem.sock")
    memory = sim.add(MemoryDevice("mem", socket, size=0x1000, **kwargs))
    return memory, socket


def write_req(offset, data, token=0):
    return SlaveRequest(
        read=False, offset=offset, beats=len(data), beat_bytes=4,
        addresses=[offset + 4 * i for i in range(len(data))],
        data=data, token=token,
    )


def read_req(offset, beats=1, token=1):
    return SlaveRequest(
        read=True, offset=offset, beats=beats, beat_bytes=4,
        addresses=[offset + 4 * i for i in range(beats)], token=token,
    )


class TestMemoryDevice:
    def test_write_then_read(self):
        sim = Simulator()
        memory, socket = make_memory(sim)
        socket.requests.push(write_req(0x40, [5, 6], token=0))
        socket.requests.push(read_req(0x40, beats=2, token=1))
        sim.run_until(lambda: len(socket.responses) >= 2, max_cycles=100)
        first, second = [socket.responses.pop() for _ in range(len(socket.responses))]
        assert first.token == 0 and first.status is ResponseStatus.OKAY
        assert second.data == [5, 6]

    def test_latency_respected(self):
        sim = Simulator()
        memory, socket = make_memory(sim, read_latency=20)
        socket.requests.push(read_req(0x0))
        sim.run_until(lambda: bool(socket.responses), max_cycles=100)
        assert sim.cycle >= 20

    def test_out_of_bounds_is_slverr(self):
        sim = Simulator()
        memory, socket = make_memory(sim)
        socket.requests.push(read_req(0x1000))
        sim.run_until(lambda: bool(socket.responses), max_cycles=100)
        assert socket.responses.pop().status is ResponseStatus.SLVERR
        assert memory.errors_served == 1

    def test_error_range_is_slverr(self):
        sim = Simulator()
        memory, socket = make_memory(sim, error_ranges=[(0x80, 0x10)])
        socket.requests.push(read_req(0x84))
        sim.run_until(lambda: bool(socket.responses), max_cycles=100)
        assert socket.responses.pop().status is ResponseStatus.SLVERR

    def test_per_beat_cycles(self):
        def latency(per_beat):
            sim = Simulator()
            __, socket = make_memory(sim, per_beat_cycles=per_beat)
            socket.requests.push(read_req(0x0, beats=8))
            sim.run_until(lambda: bool(socket.responses), max_cycles=200)
            return sim.cycle
        assert latency(2) > latency(0)

    def test_idle_flag(self):
        sim = Simulator()
        memory, socket = make_memory(sim)
        assert memory.idle()
        socket.requests.push(read_req(0x0))
        sim.run(2)
        assert not memory.idle()
        sim.run_until(lambda: bool(socket.responses), max_cycles=100)
        sim.run(1)
        assert memory.idle()

    def test_counters(self):
        sim = Simulator()
        memory, socket = make_memory(sim)
        socket.requests.push(write_req(0x0, [1]))
        socket.requests.push(read_req(0x0))
        sim.run_until(lambda: len(socket.responses) >= 2, max_cycles=100)
        assert memory.writes_served == 1
        assert memory.reads_served == 1
        assert len(memory.store) == 4
