"""Physical-layer tests: links, clock domains, link CDC."""

import pytest

from repro.phys.clocking import ClockDomain, make_clock_domain
from repro.phys.link import LinkSpec, PhysicalLink, phits_per_flit
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.transport.flit import Flit


def flit(seq=0, count=1, packet_id=1):
    return Flit(
        packet_id=packet_id, seq=seq, count=count, dest=0, src=1, priority=0,
        lock_related=False,
    )


class TestSerialization:
    def test_phits_per_flit(self):
        assert phits_per_flit(72, 72) == 1
        assert phits_per_flit(72, 36) == 2
        assert phits_per_flit(72, 16) == 5

    def test_phits_per_flit_edge_cases(self):
        # exact division, serial single-wire, phit wider than flit,
        # degenerate 1-bit flit
        assert phits_per_flit(64, 32) == 2
        assert phits_per_flit(72, 1) == 72
        assert phits_per_flit(16, 128) == 1
        assert phits_per_flit(1, 1) == 1

    def test_bad_widths(self):
        with pytest.raises(ValueError):
            phits_per_flit(0, 8)
        with pytest.raises(ValueError):
            phits_per_flit(8, 0)
        with pytest.raises(ValueError):
            phits_per_flit(-8, -8)

    def _transit_cycles(self, phit_bits, pipeline=0):
        sim = Simulator()
        up = sim.new_queue("up", capacity=4)
        down = sim.new_queue("down", capacity=4)
        link = sim.add(
            PhysicalLink(
                "link", up, down, flit_bits=72, phit_bits=phit_bits,
                pipeline_latency=pipeline,
            )
        )
        up.push(flit())
        sim.run_until(lambda: bool(down), max_cycles=200)
        return sim.cycle, link

    def test_full_width_is_fast(self):
        full, __ = self._transit_cycles(72)
        half, __ = self._transit_cycles(36)
        quarter, __ = self._transit_cycles(18)
        assert full < half < quarter

    def test_pipeline_latency_adds(self):
        base, __ = self._transit_cycles(72, pipeline=0)
        piped, __ = self._transit_cycles(72, pipeline=3)
        assert piped == base + 3

    def test_phit_accounting(self):
        __, link = self._transit_cycles(36)
        assert link.flits_carried == 1
        assert link.phits_carried == 2

    def test_bandwidth_model(self):
        sim = Simulator()
        up, down = sim.new_queue("u"), sim.new_queue("d")
        link = PhysicalLink("l", up, down, flit_bits=72, phit_bits=36)
        assert link.bandwidth_bits_per_cycle == 36.0
        assert link.latency_cycles == 2

    def test_backpressure_no_loss(self):
        """A full downstream queue stalls the link; nothing is dropped."""
        sim = Simulator()
        up = sim.new_queue("up", capacity=16)
        down = sim.new_queue("down", capacity=1)
        sim.add(PhysicalLink("link", up, down, flit_bits=72, phit_bits=72))
        for i in range(8):
            up.push(flit(seq=0, count=1))
        received = []
        def pump():
            # consume at most one flit every 3 cycles
            if sim.cycle % 3 == 0 and down:
                received.append(down.pop())
            return len(received) >= 8
        sim.run_until(pump, max_cycles=500)
        assert len(received) == 8

    def test_narrow_link_backpressure_accounting(self):
        """Serialized + slow consumer: every flit arrives in order and the
        flit/phit counters reconcile exactly with the serialization
        factor."""
        sim = Simulator()
        up = sim.new_queue("up", capacity=16)
        down = sim.new_queue("down", capacity=2)
        link = sim.add(
            PhysicalLink("link", up, down, flit_bits=72, phit_bits=18,
                         pipeline_latency=2)
        )
        for i in range(6):
            up.push(flit(packet_id=i))
        received = []
        def pump():
            if sim.cycle % 5 == 0 and down:
                received.append(down.pop())
            return len(received) >= 6
        sim.run_until(pump, max_cycles=1000)
        assert [f.packet_id for f in received] == list(range(6))
        assert link.flits_carried == 6
        assert link.phits_carried == 6 * link.serialization == 24
        assert link.in_flight == 0 and link.idle()

    def test_wake_protocol_link_retires_and_wakes(self):
        """An idle link leaves the schedule and a committed upstream push
        brings it back — the activity kernel never loses a flit."""
        sim = Simulator()
        up = sim.new_queue("up", capacity=4)
        down = sim.new_queue("down", capacity=4)
        link = sim.add(PhysicalLink("link", up, down, flit_bits=72,
                                    phit_bits=36))
        sim.run(32)  # several retire sweeps with nothing to do
        assert link.next_event_cycle(sim.cycle) is None
        assert sim.active_count == 0
        up.push(flit())
        sim.run_until(lambda: bool(down), max_cycles=64)
        assert down.pop().packet_id == 1
        sim.run(32)
        assert sim.active_count == 0


class TestLinkSpec:
    def test_default_is_transparent_ideal_wire(self):
        spec = LinkSpec()
        assert spec.transparent(crosses_domains=False)
        assert not spec.transparent(crosses_domains=True)

    def test_any_physical_knob_is_not_transparent(self):
        assert not LinkSpec(phit_bits=32).transparent(False)
        assert not LinkSpec(pipeline_latency=1).transparent(False)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(phit_bits=0)
        with pytest.raises(ValueError):
            LinkSpec(pipeline_latency=-1)
        with pytest.raises(ValueError):
            LinkSpec(sync_stages=0)
        with pytest.raises(ValueError):
            LinkSpec(capacity=0)


class TestLinkCdc:
    def _cross(self, prod_div=1, cons_div=1, cons_phase=0, stages=2,
               flits=4, strict=False):
        """Push ``flits`` flits through a CDC link; return delivery cycles."""
        sim = Simulator(strict=strict)
        up = sim.new_queue("up", capacity=8)
        down = sim.new_queue("down", capacity=8)
        sim.add(
            PhysicalLink(
                "link", up, down, flit_bits=64, phit_bits=32,
                producer_domain=ClockDomain("p", prod_div),
                consumer_domain=ClockDomain("c", cons_div, cons_phase),
                sync_stages=stages,
            )
        )
        for i in range(flits):
            up.push(flit(packet_id=i))
        arrivals = []
        def drain():
            while down:
                arrivals.append((down.pop().packet_id, sim.cycle))
            return len(arrivals) >= flits
        sim.run_until(drain, max_cycles=2000)
        return arrivals

    def test_cdc_adds_sync_latency(self):
        same = self._cross(prod_div=1, cons_div=1, stages=2)
        # Same-name domains would not cross; different names at equal
        # ratios still synchronize — compare against a no-CDC link.
        sim = Simulator()
        up, down = sim.new_queue("u", capacity=8), sim.new_queue("d", capacity=8)
        sim.add(PhysicalLink("l", up, down, flit_bits=64, phit_bits=32))
        up.push(flit())
        sim.run_until(lambda: bool(down), max_cycles=100)
        no_cdc_first = sim.cycle
        assert same[0][1] > no_cdc_first

    def test_cdc_preserves_order(self):
        arrivals = self._cross(prod_div=2, cons_div=3, flits=6)
        assert [pid for pid, _ in arrivals] == list(range(6))

    @pytest.mark.parametrize("prod_div", [1, 2, 3])
    @pytest.mark.parametrize("cons_div,cons_phase", [(1, 0), (2, 1), (4, 3)])
    def test_cdc_determinism_across_divisor_phase_sweeps(
        self, prod_div, cons_div, cons_phase
    ):
        """Strict and activity kernels agree on every (divisor, phase)
        combination — CDC timing is an optimisation-stable function of
        visible state."""
        activity = self._cross(prod_div, cons_div, cons_phase, strict=False)
        reference = self._cross(prod_div, cons_div, cons_phase, strict=True)
        assert activity == reference


class TestClockDomains:
    def test_edges(self):
        slow = ClockDomain("slow", divisor=3)
        assert [slow.active(c) for c in range(6)] == [
            True, False, False, True, False, False,
        ]

    def test_phase(self):
        shifted = ClockDomain("s", divisor=2, phase=1)
        assert not shifted.active(0)
        assert shifted.active(1)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            ClockDomain("x", divisor=0)
        with pytest.raises(ValueError):
            ClockDomain("x", divisor=2, phase=2)


class TestMakeClockDomain:
    def test_coercions(self):
        assert make_clock_domain("a", 3) == ClockDomain("a", 3)
        assert make_clock_domain("a", (4, 1)) == ClockDomain("a", 4, 1)
        dom = ClockDomain("a", 2)
        assert make_clock_domain("a", dom) is dom
        renamed = make_clock_domain("b", dom)
        assert renamed.name == "b" and renamed.divisor == 2

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            make_clock_domain("a", "fast")


class TestDomainGatedComponents:
    def test_set_clock_domain_gates_ticks_in_both_kernels(self):
        for strict in (False, True):
            class Probe(Component):
                def __init__(self):
                    super().__init__("probe")
                    self.ticks = []
                def tick(self, cycle):
                    self.ticks.append(cycle)

            sim = Simulator(strict=strict)
            probe = Probe()
            probe.set_clock_domain(ClockDomain("slow", 3, 1))
            sim.add(probe)
            sim.run(10)
            assert probe.ticks == [1, 4, 7], f"strict={strict}"

    def test_divisor_one_domain_is_reference_clock(self):
        class Probe(Component):
            def __init__(self):
                super().__init__("probe")
                self.ticks = 0
            def tick(self, cycle):
                self.ticks += 1

        sim = Simulator()
        probe = Probe()
        probe.set_clock_domain(ClockDomain("fast", 1))
        sim.add(probe)
        sim.run(8)
        assert probe.ticks == 8
        probe.set_clock_domain(None)
        assert probe._clk_divisor == 1
