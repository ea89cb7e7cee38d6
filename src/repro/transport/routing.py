"""Deterministic routing and virtual-channel selection policies.

Four routing schemes.  The three deterministic ones are one table loop
(:func:`compute_tables`) fed three *next-hop rules* — given a router and
a destination's home router, name the neighbour to forward to:

- **table routing** — the canonically smallest neighbour on a BFS
  shortest path (deterministic across runs, any router ids);
- **XY routing** — dimension-ordered routing for meshes whose router ids
  are ``(x, y)`` tuples; provably deadlock-free on meshes;
- **DOR routing** — dimension-ordered routing *with wraparound* for
  rings (integer ids) and tori (tuple ids): each dimension is traversed
  the shortest way around its ring (ties towards the positive
  direction), X before Y.  Minimal and deterministic; combined with the
  dateline VC policy below it is provably deadlock-free with 2 VCs;
- **adaptive routing** — Duato-style minimal-adaptive: every hop may
  forward on *any* output of the minimal set (any neighbour strictly
  closer to the destination), chosen per cycle by downstream congestion,
  while a reserved *escape* VC pair falls back to the deterministic
  scheme (DOR with dateline classes on rings/tori, XY on meshes).  See
  :class:`AdaptiveRoutingTable` / :class:`EscapeVcPolicy` and the
  deadlock argument below.  The candidate sets have one builder,
  :func:`compute_degraded_tables`, which works on the *surviving*
  directed graph of a fault epoch; the healthy tables
  (:func:`compute_adaptive_tables`) are that builder with nothing down.

Port naming convention (shared with :mod:`repro.transport.router`):
``to:<router>`` for an inter-router link towards ``<router>`` and
``local:<endpoint>`` for the ejection port of an attached endpoint.

Virtual-channel selection
-------------------------
A :class:`VcPolicy` decides which VC a packet is injected on and which
output VC a router's VC-allocation stage assigns at each hop.  The
default policy keeps everything on VC 0.  :class:`PriorityVcPolicy`
maps packet priority classes onto VCs (QoS isolation: a high-priority
flow can never be head-of-line blocked behind best-effort traffic
sharing its input port).  :class:`DatelineVcPolicy` implements the
classic dateline construction for wraparound topologies:

**Deadlock-freedom argument (dateline, 2 VCs).**  Under DOR routing a
packet traverses each dimension's unidirectional ring at most once and
crosses that ring's wraparound edge (the *dateline*) at most once.
Packets enter every dimension on VC 0 and are promoted to VC 1 for the
rest of that dimension when they cross the dateline.  Order the channels
of one unidirectional ring ``c0 < c1 < … < ck`` starting just past the
dateline: a packet on VC 0 only ever waits for strictly increasing VC-0
channels (it would have been promoted before wrapping), and a packet on
VC 1 only for strictly increasing VC-1 channels, so neither VC class
contains a cyclic channel dependency.  Across dimensions DOR orders X
strictly before Y, so inter-dimension dependencies are acyclic too, and
ejection queues are always drainable sinks.  Hence the channel
dependency graph is acyclic and wormhole routing cannot deadlock.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.transport.topology import RouterId, Topology, bfs_distances

DirectedEdge = Tuple[RouterId, RouterId]
PortKey = Tuple[RouterId, str]


class RoutingError(RuntimeError):
    """No route exists (configuration bug — topologies are connected)."""


def port_to(neighbor: RouterId) -> str:
    return f"to:{neighbor}"


def port_local(endpoint: int) -> str:
    return f"local:{endpoint}"


def xy_route(router: RouterId, dest_router: RouterId) -> RouterId:
    """Next router on the X-then-Y path (mesh with tuple ids, no wrap)."""
    if not (isinstance(router, tuple) and isinstance(dest_router, tuple)):
        raise RoutingError(
            f"XY routing needs (x, y) router ids, got {router!r} -> {dest_router!r}"
        )
    x, y = router
    dx, dy = dest_router
    if x != dx:
        return (x + (1 if dx > x else -1), y)
    if y != dy:
        return (x, y + (1 if dy > y else -1))
    raise RoutingError(f"xy_route called with router == dest ({router!r})")


# ---------------------------------------------------------------------- #
# dimension-ordered routing with wraparound (rings and tori)
# ---------------------------------------------------------------------- #
def _ring_step(coord: int, dest: int, size: int) -> int:
    """Next coordinate moving the shortest way around a ring of ``size``
    positions; an even split ties towards the positive direction."""
    forward = (dest - coord) % size
    backward = (coord - dest) % size
    step = 1 if forward <= backward else -1
    return (coord + step) % size


def dor_route(
    router: RouterId, dest_router: RouterId, dims: Tuple[int, ...]
) -> RouterId:
    """Next router under dimension-ordered routing with wraparound.

    ``dims`` holds the ring size per dimension: ``(n,)`` for an
    integer-id ring, ``(width, height)`` for a torus.
    """
    if isinstance(router, tuple):
        x, y = router
        dx, dy = dest_router
        if x != dx:
            return (_ring_step(x, dx, dims[0]), y)
        if y != dy:
            return (x, _ring_step(y, dy, dims[1]))
        raise RoutingError(f"dor_route called with router == dest ({router!r})")
    if router == dest_router:
        raise RoutingError(f"dor_route called with router == dest ({router!r})")
    return _ring_step(router, dest_router, dims[0])


def _dor_dims(topology: Topology) -> Tuple[int, ...]:
    """Ring size per dimension: integer router ids are a single ring,
    ``(x, y)`` ids a torus whose dimensions are inferred from the id set."""
    routers = topology.routers
    if isinstance(routers[0], tuple):
        return max(r[0] for r in routers) + 1, max(r[1] for r in routers) + 1
    return (len(routers),)


ROUTING_SCHEMES = ("table", "xy", "dor", "adaptive")


def _next_hop_rule(
    topology: Topology, scheme: str
) -> Callable[[RouterId, RouterId], RouterId]:
    """``rule(router, home) -> neighbour`` of a deterministic scheme."""
    if scheme == "table":
        # BFS shortest paths (cached per home router on the topology);
        # among equal-length choices the canonically smallest neighbour
        # wins, so tables do not depend on the order links were listed in.
        return lambda router, home: topology.minimal_neighbors(router, home)[0]
    if scheme == "xy":
        return xy_route
    if scheme == "dor":
        dims = _dor_dims(topology)
        return lambda router, home: dor_route(router, home, dims)
    if scheme == "adaptive":
        raise ValueError(
            "adaptive routing has multi-output tables; "
            "use compute_adaptive_tables()"
        )
    raise ValueError(
        f"unknown routing scheme {scheme!r}; known: {ROUTING_SCHEMES}"
    )


def compute_tables(
    topology: Topology, scheme: str
) -> Dict[RouterId, Dict[int, str]]:
    """``tables[router][endpoint] -> output port name`` under ``scheme``
    (the ``routing=`` knob).

    Every next hop is checked against the topology, so a scheme asked to
    route a shape it does not fit (XY on a ring, DOR on a plain mesh
    that lacks the wraparound link it wants) fails loudly.
    """
    next_hop = _next_hop_rule(topology, scheme)
    routers = topology.routers
    tables: Dict[RouterId, Dict[int, str]] = {r: {} for r in routers}
    for endpoint in topology.endpoints:
        home = topology.router_of(endpoint)
        for router in routers:
            if router == home:
                tables[router][endpoint] = port_local(endpoint)
                continue
            neighbor = next_hop(router, home)
            if not topology.has_link(router, neighbor):
                raise RoutingError(
                    f"{scheme} next hop {router!r}->{neighbor!r} is not a "
                    f"link of {topology.name!r}"
                )
            tables[router][endpoint] = port_to(neighbor)
    return tables


# ---------------------------------------------------------------------- #
# minimal-adaptive routing with escape VCs
# ---------------------------------------------------------------------- #
class AdaptiveRoutingTable:
    """One router's multi-output route lookup for minimal-adaptive routing.

    ``candidates[endpoint]`` is the tuple of output ports that keep the
    route minimal (canonical order — this is the deterministic tie-break
    order of congestion-equal choices), and ``escape[endpoint]`` the
    single output of the deterministic escape scheme (DOR on rings/tori,
    XY on meshes, BFS tables elsewhere).  The escape port is always a
    member of the candidate set (both schemes are minimal).  At the home
    router both collapse to the ejection port.
    """

    __slots__ = ("candidates", "escape")

    def __init__(
        self,
        candidates: Dict[int, Tuple[str, ...]],
        escape: Dict[int, str],
    ) -> None:
        self.candidates = candidates
        self.escape = escape

    def outputs(self, dest: int) -> Tuple[str, ...]:
        try:
            return self.candidates[dest]
        except KeyError:
            raise KeyError(
                f"no adaptive route to endpoint {dest} "
                f"(table has {sorted(self.candidates)})"
            ) from None

    def escape_port(self, dest: int) -> str:
        return self.escape[dest]


def surviving_distances(
    topology: Topology, down_links: Set[DirectedEdge], down_ports: Set[PortKey]
) -> Tuple[Dict[RouterId, List[RouterId]], Callable[[RouterId], Dict[RouterId, int]]]:
    """The surviving directed graph of a fault epoch.

    Returns ``(alive, distances_to)``: ``alive[router]`` lists the
    neighbours the router's outputs still reach (canonical order), and
    ``distances_to(home)`` maps every router that still has a path *to*
    ``home`` to its hop count (one search per home router, memoised).
    """
    alive = {
        router: [
            n
            for n in topology.neighbors(router)
            if (router, n) not in down_links
            and (router, port_to(n)) not in down_ports
        ]
        for router in topology.routers
    }
    reverse: Dict[RouterId, List[RouterId]] = {r: [] for r in alive}
    for router, neighbors in alive.items():
        for n in neighbors:
            reverse[n].append(router)
    memo: Dict[RouterId, Dict[RouterId, int]] = {}

    def distances_to(home: RouterId) -> Dict[RouterId, int]:
        if home not in memo:
            memo[home] = bfs_distances(reverse.__getitem__, home)
        return memo[home]

    return alive, distances_to


def compute_degraded_tables(
    topology: Topology,
    down_links: Set[DirectedEdge],
    down_ports: Set[PortKey],
    healthy_escape: Optional[Dict[RouterId, Dict[int, str]]] = None,
) -> Tuple[Dict[RouterId, AdaptiveRoutingTable], Dict[RouterId, Set[int]]]:
    """Adaptive tables computed on the surviving directed graph.

    Candidate sets are the alive neighbours strictly closer to the
    destination's home router under *surviving-graph* BFS distance — a
    genuine reroute, so a router whose healthy-minimal neighbours all
    died still forwards along the detour.  With nothing down that is
    the minimal output set (on a mesh/torus exactly the minimal
    quadrant, at most one neighbour per dimension with a non-zero
    offset).  The escape entry keeps the healthy deterministic (DOR/XY)
    port wherever it is still alive and minimal, preserving the proven
    escape construction away from the fault; elsewhere it falls back to
    the first surviving candidate (a per-destination BFS tree — acyclic
    per destination but *not* proven deadlock-free across destinations,
    which is why the partition watchdog and ``run_until`` budgets stay
    armed while degraded).

    Returns ``(tables, unroutable)`` where ``unroutable[router]`` is the
    set of endpoints unreachable from that router this epoch (empty sets
    omitted).  An endpoint whose ``local:`` ejection port is down is
    unreachable from everywhere, including its home router.
    """
    alive, distances_to = surviving_distances(topology, down_links, down_ports)
    routers = topology.routers
    candidates: Dict[RouterId, Dict[int, Tuple[str, ...]]] = {
        r: {} for r in routers
    }
    escape: Dict[RouterId, Dict[int, str]] = {r: {} for r in routers}
    unroutable: Dict[RouterId, Set[int]] = {}
    for endpoint in topology.endpoints:
        home = topology.router_of(endpoint)
        local_dead = (home, port_local(endpoint)) in down_ports
        dist = {} if local_dead else distances_to(home)
        for router in routers:
            if router == home and not local_dead:
                cands: Tuple[str, ...] = (port_local(endpoint),)
            elif router in dist:
                here = dist[router]
                cands = tuple(
                    port_to(n)
                    for n in alive[router]
                    if n in dist and dist[n] < here
                )
            else:
                cands = ()
            candidates[router][endpoint] = cands
            if cands:
                choice = cands[0]
                if healthy_escape is not None:
                    preferred = healthy_escape[router].get(endpoint)
                    if preferred in cands:
                        choice = preferred
                escape[router][endpoint] = choice
            else:
                unroutable.setdefault(router, set()).add(endpoint)
    tables = {
        r: AdaptiveRoutingTable(candidates[r], escape[r]) for r in routers
    }
    return tables, unroutable


def compute_adaptive_tables(
    topology: Topology,
) -> Dict[RouterId, AdaptiveRoutingTable]:
    """Minimal output sets + deterministic escape tables per router.

    The escape table is the strongest deterministic scheme the topology
    supports: DOR where the wraparound links exist, XY on plain meshes,
    canonical BFS tables for arbitrary graphs (deadlock freedom of the
    escape subnetwork is only *argued* for ring/torus — with dateline
    classes — and mesh; see :class:`EscapeVcPolicy`).  The candidate
    sets are :func:`compute_degraded_tables` with nothing down.
    """
    for scheme in ("dor", "xy", "table"):
        try:
            escape_tables = compute_tables(topology, scheme)
            break
        except (RoutingError, TypeError):
            # TypeError: DOR/XY arithmetic on non-numeric router ids
            # (topo.custom allows arbitrary hashables) — fall through to
            # the next scheme, ending at BFS tables which accept any id.
            continue
    tables, _ = compute_degraded_tables(topology, set(), set(), escape_tables)
    return tables


# ---------------------------------------------------------------------- #
# virtual-channel selection policies
# ---------------------------------------------------------------------- #
class VcPolicy:
    """Chooses virtual channels at injection and per hop.

    ``injection_vc`` runs in the injection port when a packet is
    segmented; ``output_vc`` runs in the router's VC-allocation stage
    when a head flit requests an output.  ``prev_router`` is the
    neighbour the packet arrived from (``None`` at the injection hop)
    and ``next_router`` the neighbour the chosen output leads to
    (``None`` for ejection ports).  Policies are stateless: everything
    they need rides on the packet or in the hop geometry, so one
    instance can serve every router of a plane.
    """

    name = "keep"
    min_vcs = 1

    def injection_vc(self, packet, vcs: int) -> int:
        return 0

    def output_vc(
        self,
        router: RouterId,
        prev_router: Optional[RouterId],
        next_router: Optional[RouterId],
        in_vc: int,
        vcs: int,
    ) -> int:
        return in_vc


class PriorityVcPolicy(VcPolicy):
    """QoS isolation: packet priority class selects the injection VC.

    Priority ``p`` rides VC ``min(p, vcs - 1)`` end to end, so a
    high-priority flow owns its buffer at every *fabric* input port and
    is never head-of-line blocked there behind a stalled best-effort
    packet — the per-output QoS arbiters finally see the high-priority
    head.  (The injection port's packet queue is still a shared FIFO;
    one blocked packet parks aside per VC, deeper backlogs queue in
    arrival order — see ROADMAP open items.)
    """

    name = "priority"

    def injection_vc(self, packet, vcs: int) -> int:
        return max(0, min(packet.priority, vcs - 1))


class DatelineVcPolicy(VcPolicy):
    """Dateline VC classes for rings/tori (see module docstring).

    Packets enter each dimension on VC 0 and move to VC 1 when the hop
    crosses that dimension's wraparound edge (detected geometrically: a
    coordinate delta whose magnitude exceeds 1).  With DOR routing this
    makes wormhole routing on ``topology.ring`` / ``topology.torus``
    deadlock-free with 2 VCs.  Ejection keeps the current VC.
    """

    name = "dateline"
    min_vcs = 2

    @staticmethod
    def _deltas(a: RouterId, b: RouterId) -> Tuple[int, ...]:
        if isinstance(a, tuple):
            return tuple(ax - bx for ax, bx in zip(a, b))
        return (a - b,)

    @classmethod
    def _hop_dim(cls, a: RouterId, b: RouterId) -> int:
        for dim, delta in enumerate(cls._deltas(a, b)):
            if delta:
                return dim
        return -1

    @classmethod
    def _crosses_dateline(cls, a: RouterId, b: RouterId) -> bool:
        return any(abs(delta) > 1 for delta in cls._deltas(a, b))

    def output_vc(
        self,
        router: RouterId,
        prev_router: Optional[RouterId],
        next_router: Optional[RouterId],
        in_vc: int,
        vcs: int,
    ) -> int:
        if next_router is None:  # ejection: per-VC delivery, keep class
            return in_vc
        if self._crosses_dateline(router, next_router):
            return 1
        if prev_router is None:  # injection hop, dateline not crossed
            return 0
        if self._hop_dim(prev_router, router) != self._hop_dim(router, next_router):
            return 0  # entering a fresh dimension ring
        return min(in_vc, 1)


class EscapeVcPolicy(VcPolicy):
    """VC split for minimal-adaptive routing (Duato's methodology).

    The VC space of a plane is divided into two classes:

    - **adaptive VCs** ``0 .. vcs - 3``: a head flit may acquire any
      adaptive VC of any output in its *minimal* set, chosen per cycle
      by downstream congestion.  No ordering discipline applies, so
      these channels may form cyclic dependencies under load;
    - **escape VCs** ``vcs - 2, vcs - 1``: the top two VCs are reserved
      for the deterministic escape subnetwork — DOR routing with the
      dateline construction mapped onto the pair (class 0 before the
      wraparound crossing, class 1 after).  A packet that enters the
      escape class stays on it (DOR from wherever it is) until ejection.

    **Deadlock-freedom argument.**  The escape subnetwork on its own is
    the PR 3 construction: DOR keeps inter-dimension dependencies
    acyclic and the dateline pair breaks each ring's wrap cycle, so the
    escape channel dependency graph is acyclic and always drains (a
    packet joining escape mid-route still crosses each dimension's
    dateline at most once — minimal routing never wraps a ring twice —
    so the strictly-increasing channel-order argument is unchanged).
    Every head flit blocked on adaptive VCs *also* requests its escape
    VC each cycle, and escape admission only waits on escape-network
    state; since escape drains, every waiting head is eventually
    granted, so the whole fabric is deadlock-free however tangled the
    adaptive-class dependencies get.  ``EscapeVcPolicy(escape=False)``
    removes the escape class (pure minimal-adaptive) — the configuration
    the adversarial tests freeze — to demonstrate that the escape VCs,
    not luck, provide the guarantee.

    **Under faults** (a :class:`~repro.transport.faults.FaultSchedule`
    attached to the plane), the argument weakens honestly rather than
    silently.  What still holds: routers whose ports all survive keep
    their DOR escape next-hops verbatim (the degraded recompute prefers
    the healthy escape port wherever it is alive and still minimal, see
    :func:`compute_degraded_tables`), so away
    from the fault the dateline/DOR acyclicity argument is untouched;
    and blocked heads still request escape every cycle.  What is *lost*:
    at routers forced to detour, the escape entry falls back to a
    BFS-tree port on the surviving graph — acyclic per destination but
    with no cross-destination channel ordering — so degraded escape
    routes are **not proven deadlock-free**.  What loudly fails instead
    of wedging: the plane's
    :class:`~repro.transport.faults.FaultInjector` keeps a partition
    watchdog armed the whole time any fault is active, raising a named
    :class:`~repro.transport.faults.FabricPartitionError` for provably
    stuck traffic within its cycle budget, and ``run_until`` budgets
    bound everything else.  A destination with *no* surviving path is
    rejected at build time (:class:`NoSurvivingPathError`) unless
    explicitly allowed.

    Injection maps priority classes onto the adaptive VCs (as
    :class:`PriorityVcPolicy` does over the whole space), keeping QoS
    isolation inside the adaptive class.
    """

    name = "escape"
    min_vcs = 3
    escape_vcs = 2

    def __init__(self, escape: bool = True) -> None:
        self.escape = escape
        if not escape:
            self.min_vcs = 1
            self.escape_vcs = 0

    def adaptive_vcs(self, vcs: int) -> int:
        """Number of adaptive-class VCs on a plane with ``vcs`` total."""
        return vcs - self.escape_vcs

    def escape_base(self, vcs: int) -> int:
        return vcs - self.escape_vcs

    def is_escape_vc(self, vc: int, vcs: int) -> bool:
        return self.escape and vc >= vcs - self.escape_vcs

    def injection_vc(self, packet, vcs: int) -> int:
        return max(0, min(packet.priority, self.adaptive_vcs(vcs) - 1))

    def escape_output_vc(
        self,
        router: RouterId,
        prev_router: Optional[RouterId],
        next_router: RouterId,
        in_vc: int,
        vcs: int,
    ) -> int:
        """Escape-class VC for the hop ``router -> next_router``.

        Dateline classes within the escape pair: promotion on the
        wraparound edge, reset on a dimension change, and a packet
        transitioning in from an adaptive VC enters at class 0 (its
        remaining DOR path crosses each remaining dateline at most
        once, which is all the argument needs).
        """
        base = self.escape_base(vcs)
        was_escape = in_vc >= base
        try:
            if DatelineVcPolicy._crosses_dateline(router, next_router):
                cls = 1
            elif not was_escape or prev_router is None:
                cls = 0
            elif DatelineVcPolicy._hop_dim(
                prev_router, router
            ) != DatelineVcPolicy._hop_dim(router, next_router):
                cls = 0  # entering a fresh dimension ring
            else:
                cls = min(in_vc - base, 1)
        except TypeError:
            # Non-numeric router ids (arbitrary topo.custom graphs) have
            # no ring geometry and hence no datelines to cross.
            cls = 0
        return base + cls

    def output_vc(
        self,
        router: RouterId,
        prev_router: Optional[RouterId],
        next_router: Optional[RouterId],
        in_vc: int,
        vcs: int,
    ) -> int:
        # Only meaningful on an adaptive router, whose VC-allocation
        # stage enumerates (output, VC) candidates itself; ejection (the
        # one case routed through the generic hook) keeps the class.
        return in_vc


VC_POLICIES = {
    cls.name: cls
    for cls in (VcPolicy, PriorityVcPolicy, DatelineVcPolicy, EscapeVcPolicy)
}


def make_vc_policy(policy) -> VcPolicy:
    """Accept a policy instance, a registered name, or ``None`` (keep)."""
    if policy is None:
        return VcPolicy()
    if isinstance(policy, VcPolicy):
        return policy
    try:
        return VC_POLICIES[policy]()
    except KeyError:
        raise KeyError(
            f"unknown VC policy {policy!r}; known: {sorted(VC_POLICIES)}"
        ) from None
