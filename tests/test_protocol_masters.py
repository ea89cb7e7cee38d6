"""Protocol master models: each socket's issue rules and conversions.

These tests drive masters against a stub responder that mimics an
attachment point (NIU/bridge) at socket level, so the protocol rules are
exercised without the fabric.
"""

import io
import pickle

import pytest

from repro.core.transaction import Opcode, make_read, make_write
from repro.ip import TrafficSpec
from repro.protocols.ahb import AhbMaster, AhbRequest, AhbResponse, HBurst, HResp, hburst_for
from repro.protocols.axi import AxiB, AxiMaster, AxiR, AxLock, XResp
from repro.protocols.base import ProtocolError
from repro.protocols.ocp import MCmd, OcpMaster, OcpResponse, SResp
from repro.protocols.proprietary import MsgKind, MsgMaster, MsgResponse, make_fence
from repro.protocols.vci import AvciMaster, BvciMaster, PvciMaster, VciRerror, VciResponse
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.queue import SimQueue
from repro.core.transaction import BurstType


class StubResponder(Component):
    """Pops protocol requests and answers after a fixed delay."""

    def __init__(self, name, master, protocol, delay=3):
        super().__init__(name)
        self.master = master
        self.protocol = protocol
        self.delay = delay
        self.pending = []  # (ready_cycle, channel, record)
        self.seen = []

    def tick(self, cycle):
        for ready, channel, record in list(self.pending):
            if ready <= cycle and self.master.socket.rsp(channel).can_push():
                self.master.socket.rsp(channel).push(record)
                self.pending.remove((ready, channel, record))
        if self.protocol == "AXI":
            for ch in ("ar", "aw"):
                q = self.master.socket.req(ch)
                while q:
                    r = q.pop()
                    self.seen.append(r)
                    if ch == "ar":
                        rsp = AxiR(rid=r.arid, rdata=[0] * (r.arlen + 1),
                                   rresp=XResp.OKAY, txn_id=r.txn.txn_id)
                        self.pending.append((cycle + self.delay, "r", rsp))
                    else:
                        rsp = AxiB(bid=r.awid, bresp=XResp.OKAY,
                                   txn_id=r.txn.txn_id)
                        self.pending.append((cycle + self.delay, "b", rsp))
            return
        channel_in = {"AHB": "req", "OCP": "req", "VCI": "cmd", "MSG": "msg"}[
            self.protocol
        ]
        channel_out = {"AHB": "rsp", "OCP": "rsp", "VCI": "rsp", "MSG": "ack"}[
            self.protocol
        ]
        q = self.master.socket.req(channel_in)
        while q:
            r = q.pop()
            self.seen.append(r)
            if self.protocol == "AHB":
                rsp = AhbResponse(
                    txn_id=r.txn.txn_id, hresp=HResp.OKAY,
                    hrdata=None if r.hwrite else [0] * r.beats,
                )
            elif self.protocol == "OCP":
                if r.mcmd is MCmd.WR:
                    continue  # posted: no response
                rsp = OcpResponse(
                    sresp=SResp.DVA, sthreadid=r.mthreadid,
                    sdata=[0] * r.mburstlength, txn_id=r.txn.txn_id,
                )
            elif self.protocol == "VCI":
                rsp = VciResponse(
                    rerror=VciRerror.NORMAL, rdata=[0] * r.cells,
                    rtrdid=r.trdid, txn_id=r.txn.txn_id,
                )
            else:
                if r.kind is MsgKind.PUT:
                    continue
                rsp = MsgResponse(ok=True, data=[0] * r.length_words,
                                  txn_id=r.txn.txn_id)
            self.pending.append((cycle + self.delay, channel_out, rsp))


def scripted(intents):
    """A ready source issuing ``intents`` in order, for a bare master."""
    return TrafficSpec(kind="scripted", intents=intents).build()


def run_master(master_cls, protocol, intents, sim_cycles=300, **kwargs):
    sim = Simulator()
    traffic = scripted(intents)
    master = master_cls("m", sim, traffic, **kwargs)
    sim.add(master)
    sim.add(StubResponder("stub", master, protocol))
    sim.run(sim_cycles)
    return master


class TestAhbMaster:
    def test_single_outstanding(self):
        master = run_master(
            AhbMaster, "AHB", [make_read(0x10 * i) for i in range(5)]
        )
        assert master.completed == 5
        assert master.checker.outstanding == 0

    def test_hburst_encoding(self):
        assert hburst_for(BurstType.INCR, 4) is HBurst.INCR4
        assert hburst_for(BurstType.WRAP, 8) is HBurst.WRAP8
        assert hburst_for(BurstType.INCR, 5) is HBurst.INCR
        assert hburst_for(BurstType.SINGLE, 1) is HBurst.SINGLE
        with pytest.raises(ProtocolError):
            hburst_for(BurstType.WRAP, 5)
        with pytest.raises(ProtocolError):
            hburst_for(BurstType.FIXED, 4)

    def test_request_record_consistency(self):
        with pytest.raises(ProtocolError):
            AhbRequest(haddr=0, hwrite=True, hsize=2, hburst=HBurst.INCR4,
                       beats=4, hwdata=None)
        with pytest.raises(ProtocolError):
            AhbRequest(haddr=0, hwrite=False, hsize=2, hburst=HBurst.INCR4,
                       beats=3)

    def test_exclusive_rejected(self):
        txn = make_read(0)
        txn.excl = True
        with pytest.raises(ProtocolError):
            run_master(AhbMaster, "AHB", [txn])

    def test_locked_sequence_uses_hmastlock(self):
        sim = Simulator()
        from repro.core.transaction import Transaction
        seq = [
            Transaction(opcode=Opcode.READEX, address=0x0),
            Transaction(opcode=Opcode.STORE_COND_LOCKED, address=0x0, data=[1]),
        ]
        traffic = scripted(seq)
        master = AhbMaster("m", sim, traffic)
        sim.add(master)
        stub = StubResponder("stub", master, "AHB")
        sim.add(stub)
        sim.run(100)
        assert all(r.hmastlock for r in stub.seen)
        assert master.completed == 2


class TestAxiMaster:
    def test_multiple_outstanding_per_direction(self):
        intents = [make_read(0x10 * i) for i in range(6)]
        for i, t in enumerate(intents):
            t.txn_tag = i % 3
        master = run_master(AxiMaster, "AXI", intents,
                            max_outstanding_reads=4, id_count=4)
        assert master.completed == 6
        assert master.checker.outstanding == 0

    def test_reads_and_writes_use_separate_channels(self):
        intents = [make_read(0x0), make_write(0x4, [1])]
        sim = Simulator()
        master = AxiMaster("m", sim, scripted(intents))
        sim.add(master)
        stub = StubResponder("stub", master, "AXI")
        sim.add(stub)
        sim.run(200)
        kinds = {type(r).__name__ for r in stub.seen}
        assert kinds == {"AxiAR", "AxiAW"}

    def test_exclusive_marks_axlock(self):
        txn = make_read(0x0)
        txn.excl = True
        sim = Simulator()
        master = AxiMaster("m", sim, scripted([txn]))
        sim.add(master)
        stub = StubResponder("stub", master, "AXI")
        sim.add(stub)
        sim.run(100)
        assert stub.seen[0].arlock is AxLock.EXCLUSIVE

    def test_locked_ops_rejected(self):
        from repro.core.transaction import Transaction
        txn = Transaction(opcode=Opcode.READEX, address=0)
        with pytest.raises(ProtocolError):
            run_master(AxiMaster, "AXI", [txn])

    def test_posted_store_rejected(self):
        txn = make_write(0, [1], posted=True)
        with pytest.raises(ProtocolError):
            run_master(AxiMaster, "AXI", [txn])


class TestOcpMaster:
    def test_threads_interleave(self):
        intents = []
        for i in range(6):
            t = make_read(0x10 * i)
            t.thread = i % 2
            intents.append(t)
        master = run_master(OcpMaster, "OCP", intents, threads=2)
        assert master.completed == 6

    def test_posted_write_completes_without_response(self):
        master = run_master(OcpMaster, "OCP", [make_write(0, [1])],
                            posted_writes=True)
        assert master.completed == 1
        assert master.posted_count == 1

    def test_nonposted_write_waits(self):
        master = run_master(OcpMaster, "OCP", [make_write(0, [1])],
                            posted_writes=False)
        assert master.completed == 1
        assert master.posted_count == 0

    def test_lazy_sync_commands(self):
        load = make_read(0)
        load.excl = True
        store = make_write(0, [1])
        store.excl = True
        sim = Simulator()
        master = OcpMaster("m", sim, scripted([load, store]))
        sim.add(master)
        stub = StubResponder("stub", master, "OCP")
        sim.add(stub)
        sim.run(200)
        assert [r.mcmd for r in stub.seen] == [MCmd.RDL, MCmd.WRC]

    def test_lock_rejected(self):
        from repro.core.transaction import Transaction
        with pytest.raises(ProtocolError):
            run_master(OcpMaster, "OCP",
                       [Transaction(opcode=Opcode.READEX, address=0)])


class TestVciMasters:
    def test_pvci_single_outstanding(self):
        master = run_master(PvciMaster, "VCI",
                            [make_read(0x10 * i) for i in range(4)])
        assert master.completed == 4

    def test_bvci_pipelines(self):
        master = run_master(BvciMaster, "VCI",
                            [make_read(0x10 * i) for i in range(8)],
                            max_outstanding=4)
        assert master.completed == 8

    def test_pvci_rejects_locked(self):
        from repro.core.transaction import Transaction
        with pytest.raises(ProtocolError):
            run_master(PvciMaster, "VCI",
                       [Transaction(opcode=Opcode.READEX, address=0)])

    def test_avci_tags(self):
        intents = []
        for i in range(6):
            t = make_read(0x10 * i)
            t.txn_tag = i
            intents.append(t)
        master = run_master(AvciMaster, "VCI", intents, tag_count=4)
        assert master.completed == 6

    def test_excl_rejected_on_all_flavors(self):
        txn = make_read(0)
        txn.excl = True
        for cls in (PvciMaster, BvciMaster, AvciMaster):
            with pytest.raises(ProtocolError):
                run_master(cls, "VCI", [txn])


class TestMsgMaster:
    def test_get_put(self):
        intents = [make_write(0x0, [1], posted=True), make_read(0x0)]
        master = run_master(MsgMaster, "MSG", intents)
        assert master.completed == 2

    def test_fence_waits_for_priors(self):
        intents = [make_read(0x0), make_fence("m"), make_read(0x4)]
        master = run_master(MsgMaster, "MSG", intents)
        assert master.completed == 3
        assert master.fences_issued == 1

    def test_sync_rejected(self):
        txn = make_read(0)
        txn.excl = True
        with pytest.raises(ProtocolError):
            run_master(MsgMaster, "MSG", [txn])


# --------------------------------------------------------------------- #
# parking: a master refused by its own outstanding limit sleeps until a
# response; one refused by socket backpressure stays hot
# --------------------------------------------------------------------- #
PARKING_CASES = [
    # master class, stub protocol, kwargs giving an outstanding limit <= 2
    (AhbMaster, "AHB", {}),
    (AxiMaster, "AXI", {"max_outstanding_reads": 2}),
    (OcpMaster, "OCP", {"threads": 1, "per_thread_outstanding": 2}),
    (PvciMaster, "VCI", {}),
    (BvciMaster, "VCI", {"max_outstanding": 2}),
    (AvciMaster, "VCI", {"max_outstanding": 2}),
    (MsgMaster, "MSG", {"max_outstanding": 2}),
]
_parking = pytest.mark.parametrize(
    "master_cls, protocol, kwargs", PARKING_CASES,
    ids=[cls.protocol_name for cls, _, _ in PARKING_CASES],
)


class Popper(Component):
    """Pops one record per request channel per cycle.  Registered after
    the master, so its pop lands later in the cycle the master was
    refused in."""

    def __init__(self, name, master):
        super().__init__(name)
        self.master = master

    def tick(self, cycle):
        for queue in self.master.socket.request_channels.values():
            if queue:
                queue.pop()


class _ByName(pickle.Pickler):
    """Pickles the kernel and every component and queue but ``own`` as
    a reference, as a checkpoint does."""

    def __init__(self, file, own):
        super().__init__(file)
        self._own = own

    def persistent_id(self, obj):
        shared = (Component, SimQueue, Simulator)
        return id(obj) if obj is not self._own and isinstance(obj, shared) else None


def _owned_state(master):
    """Everything ``master`` owns — its attributes, checker and traffic
    source — as bytes (the wrapped ``try_issue`` left out)."""
    buffer = io.BytesIO()
    _ByName(buffer, master).dump(
        {k: v for k, v in vars(master).items() if k != "try_issue"}
    )
    return buffer.getvalue()


@_parking
def test_limit_blocked_master_parks_until_a_response(master_cls, protocol, kwargs):
    sim = Simulator(strict=False)
    reads = [make_read(0x10 * i) for i in range(6)]
    master = master_cls("m", sim, scripted(reads), **kwargs)
    tries = []

    def counted_try_issue(txn, cycle, _try_issue=master.try_issue):
        tries.append(cycle)
        return _try_issue(txn, cycle)

    master.try_issue = counted_try_issue
    sim.add(master)
    # Accepts every request, answers none of them (yet).
    stub = StubResponder("stub", master, protocol, delay=10**9)
    sim.add(stub)
    for _ in range(16):
        sim.step()
    assert 1 <= master.issued == master.outstanding <= 2
    assert master._pending is not None and master._limit_blocked
    assert master.next_event_cycle(sim.cycle) is None
    assert not master._scheduled  # a retire sweep took it off the run list

    issued = master.issued
    before = _owned_state(master)
    refused = len(tries)
    for extra in range(5):
        master.tick(sim.cycle + extra)
    assert _owned_state(master) == before  # every parked tick is a no-op
    # ...and a cheap one: the limit refusal stands until a completion,
    # so the ticks before the retire sweep do not ask try_issue again.
    assert len(tries) == refused

    _, channel, response = stub.pending[0]
    master.socket.rsp(channel).push(response)
    sim.step()  # commit: the response is visible, the push-wake fired
    assert master._scheduled
    assert master.next_event_cycle(sim.cycle) == sim.cycle
    sim.step()
    assert master.completed == 1 and master.issued == issued + 1
    # Asked again in the very tick that collected the response.
    assert tries[refused:] == [sim.cycle - 1]


@_parking
def test_backpressured_master_stays_hot_when_popped_same_cycle(
    master_cls, protocol, kwargs
):
    """The refusal reason is sampled at the refusal: by the time anyone
    asks next_event_cycle, a later-ticking consumer has already popped
    the full channel, and "every channel has room" would misread socket
    backpressure as an own-limit block that no response ever ends."""
    sim = Simulator(strict=False)
    master = master_cls("m", sim, scripted([make_read(0x0)]), **kwargs)
    sim.add(master)
    sim.add(Popper("popper", master))
    for queue in master.socket.request_channels.values():
        while queue.can_push():
            queue.push(object())
        queue.commit()
    sim.step()
    assert master.issued == 0 and master._pending is not None
    assert all(q.can_push() for q in master.socket.request_channels.values())
    assert not master._limit_blocked
    assert master.next_event_cycle(sim.cycle) == sim.cycle
    sim.step()
    assert master.issued == 1  # the cycle the strict kernel issues it too
