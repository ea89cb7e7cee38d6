"""Physical-layer tests: links, clock domains, link CDC."""

import pytest

from repro.phys.clocking import ClockDomain, make_clock_domain
from repro.phys.link import LinkSpec, PhysicalLink, phits_per_flit
from repro.sim.component import Component
from repro.sim.kernel import PARK_HORIZON, Simulator
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
        assert link.downstream.total_pushed == 1
        assert link.phits_carried == 2

    def test_bandwidth_model(self):
        sim = Simulator()
        up, down = sim.new_queue("u"), sim.new_queue("d")
        link = PhysicalLink("l", up, down, flit_bits=72, phit_bits=36)
        assert link.serialization == 2  # 72 flit bits over 36-bit phits
        assert link.flit_bits / link.serialization == 36.0

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
        assert down.total_pushed == 6
        assert link.phits_carried == 6 * link.serialization == 24
        assert link.in_flight == 0

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
    @staticmethod
    def _cross(prod_div=1, cons_div=1, cons_phase=0, stages=2, flits=4,
               phit_bits=32, pipeline_latency=0, strict=False):
        """Push ``flits`` flits through a CDC link; return their delivery
        cycles and how often the kernel parked the (working) link."""
        sim = Simulator(strict=strict)
        up = sim.new_queue("up", capacity=8)
        down = sim.new_queue("down", capacity=8)
        sim.add(
            PhysicalLink(
                "link", up, down, flit_bits=64, phit_bits=phit_bits,
                pipeline_latency=pipeline_latency,
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
        sim.run_until(drain, max_cycles=4000)
        return arrivals, sim.wheel_events

    def test_cdc_adds_sync_latency(self):
        same, __ = self._cross(prod_div=1, cons_div=1, stages=2)
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
        arrivals, __ = self._cross(prod_div=2, cons_div=3, flits=6)
        assert [pid for pid, _ in arrivals] == list(range(6))

    @pytest.mark.parametrize("prod_div", [1, 2, 3, 9, 16])
    @pytest.mark.parametrize(
        "cons_div,cons_phase", [(1, 0), (2, 1), (4, 3), (9, 4), (16, 7)]
    )
    def test_cdc_determinism_across_divisor_phase_sweeps(
        self, prod_div, cons_div, cons_phase
    ):
        """Strict and activity kernels agree on every (divisor, phase)
        combination and link shape — CDC timing is an optimisation-stable
        function of visible state.  A divisor of at least PARK_HORIZON
        parks the working link between its edges, and 8-bit phits or 9
        pipeline stages keep a flit shifting or piped across several of
        them: a link that named a later edge than the next one it counts
        down on would deliver late."""
        parked = 0
        for phit_bits, latency in ((32, 0), (8, 0), (32, 9), (8, 9)):
            activity, parks = self._cross(
                prod_div, cons_div, cons_phase, phit_bits=phit_bits,
                pipeline_latency=latency,
            )
            reference, __ = self._cross(
                prod_div, cons_div, cons_phase, phit_bits=phit_bits,
                pipeline_latency=latency, strict=True,
            )
            assert activity == reference, (phit_bits, latency)
            parked += parks
        # A producer divisor of at least PARK_HORIZON parks the link
        # between phits; a consumer one parks it only when an edge lands
        # far enough past a retire sweep, which twice the horizon does.
        if prod_div >= PARK_HORIZON or cons_div >= 2 * PARK_HORIZON:
            assert parked > 0


class TestClockDomains:
    @staticmethod
    def _ticked_on(domain, cycles):
        """The kernel cycles a component placed in ``domain`` ticks on."""

        class Counting(Component):
            def __init__(self):
                super().__init__("counting")
                self.cycles = []

            def tick(self, cycle):
                self.cycles.append(cycle)

        sim = Simulator()
        counting = Counting()
        counting.set_clock_domain(domain)
        sim.add(counting)
        sim.run(cycles)
        return counting.cycles

    def test_edges(self):
        assert self._ticked_on(ClockDomain("slow", divisor=3), 6) == [0, 3]

    def test_phase(self):
        shifted = ClockDomain("s", divisor=2, phase=1)
        assert self._ticked_on(shifted, 6) == [1, 3, 5]

    def test_bad_params(self):
        with pytest.raises(ValueError):
            ClockDomain("x", divisor=0)
        with pytest.raises(ValueError):
            ClockDomain("x", divisor=2, phase=2)


class TestMakeClockDomain:
    def test_coercions(self):
        assert make_clock_domain("a", 3) == ClockDomain("a", 3)
        assert make_clock_domain("a", (4, 1)) == ClockDomain("a", 4, 1)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            make_clock_domain("a", "fast")
        with pytest.raises(ValueError, match="expected a divisor int"):
            make_clock_domain("a", ClockDomain("a", 2))  # one form per value


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
