"""A VC link's credit loop, driven through a real link.

:class:`~repro.phys.link.VcPhysicalLink` keeps each VC's credits as
integers: ``_credits`` (usable now), ``_returning`` (given back on the
last producer edge, usable on the next) and ``_capacities`` (the
downstream depth).  It used to hold one credit counter object per VC,
with a return latency of one producer edge.  Hypothesis drives a real
link with random upstream pushes and downstream pops, under both
kernels, with and without slower clocks on either end.  One test checks
that every credit of a VC is usable, returning, on the wires or
buffered downstream; the other runs the link in lockstep with
:class:`CreditOracle`, the counter's ``advance`` / ``outstanding`` /
``in_return_loop`` / ``give_back`` sequence written out, and checks that
the link's usable credits equal the oracle's at every producer edge.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.phys.clocking import ClockDomain
from repro.phys.link import VcPhysicalLink
from repro.sim.kernel import Simulator
from repro.transport.flit import Flit

LINK_RUNS = dict(
    vcs=st.integers(min_value=1, max_value=3),
    capacity=st.integers(min_value=1, max_value=4),
    producer_divisor=st.sampled_from([None, 2]),
    consumer_divisor=st.sampled_from([None, 2, 3]),
    strict=st.booleans(),
    script=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2), st.booleans(),
                  st.booleans()),
        min_size=1, max_size=150,
    ),
)

link_settings = settings(max_examples=80, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


class CreditOracle:
    """One VC's credit counter as the link held it, at return latency 1."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.available = capacity
        self.in_flight = []  # (due edge, count)
        self.now = 0

    def consume(self):
        assert self.available > 0, "sent without a credit"
        self.available -= 1

    def advance(self):
        self.now += 1
        while self.in_flight and self.in_flight[0][0] <= self.now:
            self.available += self.in_flight.pop(0)[1]

    @property
    def outstanding(self):
        return self.capacity - self.available

    @property
    def in_return_loop(self):
        return sum(count for _due, count in self.in_flight)

    def give_back(self, count):
        self.in_flight.append((self.now + 1, count))

    def step(self, held):
        """Once per producer edge: mature last edge's returns, then give
        back every credit that is neither usable, returning nor ``held``
        (on the wires or buffered downstream)."""
        self.advance()
        freed = self.outstanding - self.in_return_loop - held
        if freed > 0:
            self.give_back(freed)
        assert self.available <= self.capacity, "credit overflow"


def _flit(vc, seq):
    return Flit(packet_id=seq, seq=0, count=1, dest=0, src=0, priority=0,
                lock_related=False, vc=vc)


def _producer_edges(vcs, capacity, producer_divisor, consumer_divisor,
                    strict, script):
    """Build a link and play ``script`` on it; after each producer edge
    yield the link, its delivery queues and the flits it sent per VC."""
    sim = Simulator(strict=strict)
    ups = [sim.new_queue(f"up{vc}", capacity=4) for vc in range(vcs)]
    downs = [sim.new_queue(f"down{vc}", capacity=capacity) for vc in range(vcs)]
    producer = None if producer_divisor is None else ClockDomain(
        "fabric", producer_divisor)
    consumer = None if consumer_divisor is None else ClockDomain(
        "ip", consumer_divisor, consumer_divisor - 1)
    link = sim.add(VcPhysicalLink(
        "link", ups, downs, flit_bits=96, phit_bits=48,
        producer_domain=producer, consumer_domain=consumer,
    ))
    edges = 0
    for seq, (pick, push, pop) in enumerate(script):
        vc = pick % vcs
        if push and ups[vc].can_push():
            ups[vc].push(_flit(vc, seq))
        if pop and downs[vc]:
            downs[vc].pop()
        popped = [queue.total_popped for queue in ups]
        cycle = sim.cycle
        sim.step()
        if producer_divisor is not None and cycle % producer_divisor:
            continue  # not a producer edge: the credit loop did not run
        edges += 1
        sent = [queue.total_popped - before
                for queue, before in zip(ups, popped)]
        yield link, downs, sent
    assert edges


@link_settings
@given(**LINK_RUNS)
def test_property_credits_conserved(vcs, capacity, producer_divisor,
                                    consumer_divisor, strict, script):
    """Per VC, usable + returning + on the wires + buffered downstream
    is the downstream depth at every producer edge, so the sender can
    never overrun the receiver's buffer."""
    for link, downs, _sent in _producer_edges(
            vcs, capacity, producer_divisor, consumer_divisor, strict, script):
        for v in range(vcs):
            assert 0 <= link._credits[v] <= capacity
            assert 0 <= link._returning[v]
            assert downs[v]._occ <= capacity
            assert (link._credits[v] + link._returning[v]
                    + link._in_flight_vc[v] + downs[v]._occ == capacity)


@link_settings
@given(**LINK_RUNS)
def test_property_step_matches_the_four_call_sequence(
    vcs, capacity, producer_divisor, consumer_divisor, strict, script
):
    """The link's int credits equal what the counter's advance /
    outstanding / in_return_loop / give_back sequence, then one consume
    per flit sent, leaves at every producer edge."""
    oracles = [CreditOracle(capacity) for _ in range(vcs)]
    for link, downs, sent in _producer_edges(
            vcs, capacity, producer_divisor, consumer_divisor, strict, script):
        for v, oracle in enumerate(oracles):
            # The tick sends after its credit loop: take the flit it sent
            # back out of what the loop saw held.
            oracle.step(link._in_flight_vc[v] - sent[v] + downs[v]._occ)
            if sent[v]:
                oracle.consume()
        assert link._credits == [oracle.available for oracle in oracles]
