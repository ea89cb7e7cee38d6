"""Target IP models.

:class:`MemoryDevice` is the workhorse: byte-addressed storage behind a
:class:`~repro.protocols.base.SlaveSocket`, with a configurable access
latency pipeline.  It stores bytes (not words), so mixed beat widths from
different sockets read back exactly what was written — a real
compatibility requirement once AHB (32-bit) and AXI (64-bit) masters
share a target.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.transaction import ResponseStatus
from repro.protocols.base import SlaveRequest, SlaveResponse, SlaveSocket
from repro.sim.component import Component
from repro.sim.snapshot import Snapshottable


class ByteStore(Snapshottable):
    """Byte-addressed sparse storage shared by memory models.

    Values are stored per byte so mixed beat widths (a 32-bit AHB master
    and a 64-bit AXI master sharing a target) read back exactly what was
    written.
    """

    _snapshot_fields = ("_bytes",)

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}

    def write_beat(self, offset: int, value: int, beat_bytes: int) -> None:
        for i in range(beat_bytes):
            self._bytes[offset + i] = (value >> (8 * i)) & 0xFF

    def read_beat(self, offset: int, beat_bytes: int) -> int:
        value = 0
        for i in range(beat_bytes):
            value |= self._bytes.get(offset + i, 0) << (8 * i)
        return value

    def image(self) -> Dict[int, int]:
        return dict(self._bytes)

    def __len__(self) -> int:
        return len(self._bytes)


class MemoryDevice(Component, Snapshottable):
    """Simple-latency memory target.

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
        super().__init__(name)
        self.socket = socket
        self.size = size
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.per_beat_cycles = per_beat_cycles
        self.error_ranges = list(error_ranges or [])
        self.store = ByteStore()
        self._pipeline: Deque[Tuple[int, SlaveResponse]] = deque()
        self.reads_served = 0
        self.writes_served = 0
        self.errors_served = 0
        # Activity wiring: new requests wake the device; a popped
        # response frees the retire path while the pipeline drains.
        socket.requests.wake_on_push(self)
        socket.responses.wake_on_pop(self)

    # -- state capture ----------------------------------------------------
    _snapshot_fields = (
        "_pipeline",
        "reads_served",
        "writes_served",
        "errors_served",
    )

    def _snapshot_state(self) -> dict:
        state = super()._snapshot_state()
        state["store"] = self.store.snapshot()
        return state

    def _restore_state(self, state) -> None:
        super()._restore_state(state)
        self.store.restore(state["store"])

    def next_event_cycle(self, now: int):
        """A request at the socket needs a tick now; otherwise the next
        event is the oldest pipeline entry's maturation cycle.  A matured
        entry blocked on a full response channel keeps the device hot
        rather than deferring to the pop-wake: a pop frees channel space
        in the same cycle it happens, and the strict kernel lets a
        later-ticked device retire into that slot immediately.  Dormant
        (``None``) only when truly empty — new requests push-wake us."""
        if self.socket.requests._committed:
            return now
        if self._pipeline:
            ready = self._pipeline[0][0]
            return ready if ready > now else now
        return None

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
    def tick(self, cycle: int) -> None:
        # Retire matured accesses (in order).
        while (
            self._pipeline
            and self._pipeline[0][0] <= cycle
            and self.socket.responses.can_push()
        ):
            __, response = self._pipeline.popleft()
            self.socket.responses.push(response)
        # Accept one new request per cycle.
        if not self.socket.requests._committed:
            return
        request: SlaveRequest = self.socket.requests.pop()
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
        latency += self.per_beat_cycles * request.beats
        self._pipeline.append((cycle + max(1, latency), response))

    def idle(self) -> bool:
        return not self._pipeline and not self.socket.requests

    @property
    def stored_bytes(self) -> int:
        return len(self.store)
