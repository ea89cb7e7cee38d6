"""Target IP models.

:class:`MemoryDevice` is the workhorse: a :class:`Memory` (byte-addressed
storage and its access timing) behind a
:class:`~repro.protocols.base.SlaveSocket`, with a latency pipeline.  It
stores bytes (not words), so mixed beat widths from different sockets
read back exactly what was written — a real compatibility requirement
once AHB (32-bit) and AXI (64-bit) masters share a target.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.transaction import ResponseStatus
from repro.protocols.base import SlaveRequest, SlaveResponse, SlaveSocket
from repro.sim.component import Component
from repro.sim.stats import Counters


class ByteStore:
    """Byte-addressed storage shared by memory models.

    Values are stored per byte so mixed beat widths (a 32-bit AHB master
    and a 64-bit AXI master sharing a target) read back exactly what was
    written.  Two ``bytearray``s hold the data and a written-mask; both
    grow only up to the highest offset written, so a store costs a byte
    and a flag per address, not a dict entry per byte.  Bytes never
    written read as zero.
    """

    def __init__(self) -> None:
        self._data = bytearray()
        self._written = bytearray()

    def write_beat(self, offset: int, value: int, beat_bytes: int) -> None:
        end = offset + beat_bytes
        if end > len(self._data):
            pad = bytes(end - len(self._data))
            self._data += pad
            self._written += pad
        # Bits above the beat are dropped, as a beat-wide bus drops them.
        mask = (1 << (8 * beat_bytes)) - 1
        self._data[offset:end] = (value & mask).to_bytes(beat_bytes, "little")
        self._written[offset:end] = b"\x01" * beat_bytes

    def read_beat(self, offset: int, beat_bytes: int) -> int:
        return int.from_bytes(self._data[offset:offset + beat_bytes], "little")

    def image(self) -> Tuple[str, str]:
        """The store's contents as ``(data.hex(), written.hex())``.

        Exact and canonical: both arrays end at the highest byte written
        and a byte never written is 0 in both, so two stores holding the
        same bytes give equal images whatever order or beat widths wrote
        them, and a written zero differs from a byte never written.  Two
        strings are JSON-native and cost what the store holds, not an
        object per byte.
        """
        return (self._data.hex(), self._written.hex())

    def __len__(self) -> int:
        return self._written.count(1)


class Memory:
    """A memory target's contents and timing: what one request reads or
    writes, how it is answered and what it costs.
    :class:`MemoryDevice` serves it behind a slave socket and the Fig-2
    bus (:mod:`repro.bus.shared_bus`) serves it directly, so a target
    answers a request the same way on either architecture.

    Parameters
    ----------
    read_latency / write_latency:
        Cycles from request acceptance to response availability.
    per_beat_cycles:
        Extra cycles per burst beat (models a narrow internal array).
    error_ranges:
        ``(offset, size)`` windows that respond SLVERR — used by error
        propagation tests.
    """

    COUNTERS = Counters("memories", ("reads_served", "writes_served", "errors_served"))

    def __init__(
        self,
        size: int = 1 << 20,
        read_latency: int = 4,
        write_latency: int = 2,
        per_beat_cycles: int = 0,
        error_ranges: Optional[List[Tuple[int, int]]] = None,
    ) -> None:
        self.size = size
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.per_beat_cycles = per_beat_cycles
        self.error_ranges = list(error_ranges or [])
        self.store = ByteStore()
        self.reads_served = 0
        self.writes_served = 0
        self.errors_served = 0

    # ------------------------------------------------------------------ #
    # storage helpers (also used directly by tests)
    # ------------------------------------------------------------------ #
    def write_beat(self, offset: int, value: int, beat_bytes: int) -> None:
        self.store.write_beat(offset, value, beat_bytes)

    def read_beat(self, offset: int, beat_bytes: int) -> int:
        return self.store.read_beat(offset, beat_bytes)

    def _in_error_range(self, offset: int, span: int) -> bool:
        return any(
            offset < base + size and base < offset + span
            for base, size in self.error_ranges
        )

    # ------------------------------------------------------------------ #
    def serve(self, request: SlaveRequest) -> Tuple[SlaveResponse, int]:
        """Perform ``request`` now: its response, and its latency in
        cycles — the read or write latency plus ``per_beat_cycles`` per
        beat, which a request past the end or into an error window pays
        too, answered SLVERR."""
        span = request.beats * request.beat_bytes
        if request.offset + span > self.size or self._in_error_range(
            request.offset, span
        ):
            self.errors_served += 1
            response = SlaveResponse(
                token=request.token, status=ResponseStatus.SLVERR
            )
            latency = self.read_latency if request.read else self.write_latency
        elif request.read:
            data = [
                self.read_beat(addr, request.beat_bytes)
                for addr in request.addresses
            ]
            self.reads_served += 1
            response = SlaveResponse(token=request.token, data=data)
            latency = self.read_latency
        else:
            assert request.data is not None
            for addr, value in zip(request.addresses, request.data):
                self.write_beat(addr, value, request.beat_bytes)
            self.writes_served += 1
            response = SlaveResponse(token=request.token)
            latency = self.write_latency
        return response, latency + self.per_beat_cycles * request.beats


class MemoryDevice(Memory, Component):
    """A :class:`Memory` behind a slave socket: one request accepted per
    cycle, each response held for its latency (at least one cycle)."""

    def __init__(
        self,
        name: str,
        socket: SlaveSocket,
        size: int = 1 << 20,
        read_latency: int = 4,
        write_latency: int = 2,
        per_beat_cycles: int = 0,
        error_ranges: Optional[List[Tuple[int, int]]] = None,
    ) -> None:
        Component.__init__(self, name)
        Memory.__init__(
            self, size, read_latency, write_latency, per_beat_cycles, error_ranges
        )
        self.socket = socket
        self._pipeline: List[Tuple[int, SlaveResponse]] = []
        # Activity wiring: new requests wake the device; a matured
        # response blocked on the channel keeps it hot (next_event_cycle).
        socket.requests.wake_on_push(self)

    def next_event_cycle(self, now: int):
        """A request at the socket needs a tick now; otherwise the next
        event is the oldest pipeline entry's maturation cycle.  A matured
        entry blocked on a full response channel keeps the device hot: a
        pop frees channel space in the same cycle it happens and wakes
        nobody, and the strict kernel lets a later-ticked device retire
        into that slot immediately.  Dormant (``None``) only when truly
        empty — new requests push-wake us."""
        if self.socket.requests._committed:
            return now
        if self._pipeline:
            ready = self._pipeline[0][0]
            return ready if ready > now else now
        return None

    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        # Retire matured accesses (in order).
        while (
            self._pipeline
            and self._pipeline[0][0] <= cycle
            and self.socket.responses.can_push()
        ):
            __, response = self._pipeline.pop(0)
            self.socket.responses.push(response)
        # Accept one new request per cycle.
        if not self.socket.requests._committed:
            return
        response, latency = self.serve(self.socket.requests.pop())
        self._pipeline.append((cycle + max(1, latency), response))

    def idle(self) -> bool:
        return not self._pipeline and not self.socket.requests
