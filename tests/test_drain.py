"""Drain detection: a plane has drained when every packet it took in has
come out.

``Network.idle`` counts packets at the two ends of the plane — none
waiting in an injection or ejection packet queue, and as many ejected as
injected — where it used to walk every buffer between them.  The walk is
kept as the oracle (:func:`differential.buffer_walk`): the two must
agree at every cycle of full SoCs, and the count must also catch what
the walk cannot, a packet lost between the ports.
"""

from collections import Counter

import pytest

from differential import SCENARIOS, build, buffer_walk
from repro.core.packet import NocPacket, PacketKind
from repro.core.transaction import Opcode
from repro.sim.kernel import Simulator
from repro.transport import topology as topo
from repro.transport.network import Network

#: The e2e SoCs checked over their first 500 cycles: a mesh of five
#: socket families, a torus with adaptive routing and resequencing
#: ejection, serialized CDC links, and DMA chains.
WINDOWED = ("mixed_saturated", "torus_hotspot", "gals_links", "dma_completion")


def _agree_every_cycle(soc, done):
    """Step ``soc`` one cycle at a time until ``done()``, checking the
    count against the walk on both planes before every step; returns how
    often each answer came up."""
    answers = Counter()

    def check():
        for plane in soc.fabric._planes:
            idle = plane.idle()
            assert idle == buffer_walk(plane), f"{plane.name} @ {soc.sim.cycle}"
            answers[idle] += 1
        return done()

    soc.sim.run_until(check, max_cycles=200_000)
    return answers


@pytest.mark.parametrize("name", WINDOWED)
def test_count_matches_the_walk_every_cycle_of_a_window(name):
    soc = build(name)
    answers = _agree_every_cycle(soc, lambda: soc.sim.cycle >= 500)
    assert answers[True] and answers[False]  # both answers were checked


@pytest.mark.parametrize("name", SCENARIOS)
def test_count_matches_the_walk_every_cycle_to_completion(name):
    soc = build(name)
    answers = _agree_every_cycle(soc, soc.quiescent)
    assert answers[True] and answers[False]
    assert soc.fabric.idle()


def test_a_lost_packet_keeps_the_plane_busy():
    """A flit that vanishes between the ports leaves a packet the count
    still holds, so the plane never reads drained and a run to
    completion times out instead of ending early.  The walk finds no
    flit anywhere and calls the plane drained."""
    sim = Simulator()
    plane = Network(sim, topo.mesh(2, 2))
    plane.inject(0, NocPacket(kind=PacketKind.REQUEST, opcode=Opcode.LOAD,
                              slv_addr=3, mst_addr=0, tag=0, beats=1))

    def inputs_holding_a_flit():
        return [queue for router in plane.routers.values()
                for queue in router.inputs.values() if queue]

    sim.run_until(lambda: bool(inputs_holding_a_flit()), max_cycles=100)
    (queue,) = inputs_holding_a_flit()
    assert queue.pop().count == 1  # the whole one-flit packet
    sim.run(50)
    assert not plane.ejected(3)
    assert buffer_walk(plane)
    assert not plane.idle()
