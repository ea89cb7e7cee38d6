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
  deadlock argument below.  :func:`compute_adaptive_tables` builds the
  candidate sets and the escape tables.

Port naming convention (shared with :mod:`repro.transport.router`):
``to:<router>`` for an inter-router link towards ``<router>`` and
``local:<endpoint>`` for the ejection port of an attached endpoint.

Virtual-channel selection
-------------------------
A :class:`VcPolicy` decides which VC a packet is injected on and which
output VC a router's VC-allocation stage assigns at each hop.  The
default policy keeps everything on VC 0.  :class:`DatelineVcPolicy`
implements the classic dateline construction for wraparound topologies:

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

from typing import Callable, Dict, Optional, Tuple

from repro.transport.topology import RouterId, Topology


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
    that lacks the wraparound link it wants) fails loudly: a port name
    is formatted once per (router, neighbour), and a next hop missing
    from that map is not a link.  Pure and uncached; a ``Network`` gets
    its tables, shared, from ``network.plane_tables``.
    """
    next_hop = _next_hop_rule(topology, scheme)
    routers = topology.routers
    ports = {r: {n: port_to(n) for n in topology.neighbors(r)} for r in routers}
    tables: Dict[RouterId, Dict[int, str]] = {r: {} for r in routers}
    for endpoint in topology.endpoints:
        home = topology.router_of(endpoint)
        local = port_local(endpoint)
        for router in routers:
            if router == home:
                tables[router][endpoint] = local
                continue
            neighbor = next_hop(router, home)
            port = ports[router].get(neighbor)
            if port is None:
                raise RoutingError(
                    f"{scheme} next hop {router!r}->{neighbor!r} is not a "
                    f"link of {topology.name!r}"
                )
            tables[router][endpoint] = port
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


def compute_adaptive_tables(
    topology: Topology,
) -> Dict[RouterId, AdaptiveRoutingTable]:
    """Minimal output sets + deterministic escape tables per router.

    The escape table is the strongest deterministic scheme the topology
    supports: DOR where the wraparound links exist, XY on plain meshes,
    canonical BFS tables for arbitrary graphs (deadlock freedom of the
    escape subnetwork is only *argued* for ring/torus — with dateline
    classes — and mesh; see :class:`EscapeVcPolicy`).  A candidate set
    is the outputs toward the neighbours strictly closer to the
    destination's home router (on a mesh or torus exactly the minimal
    quadrant, at most one neighbour per dimension with a non-zero
    offset); at the home router it is the ejection port alone.
    """
    for scheme in ("dor", "xy", "table"):
        try:
            escape_tables = compute_tables(topology, scheme)
            break
        except (RoutingError, TypeError):
            # TypeError: DOR/XY arithmetic on non-numeric router ids
            # (a Topology allows arbitrary hashables) — fall through to
            # the next scheme, ending at BFS tables which accept any id.
            continue
    routers = topology.routers
    candidates: Dict[RouterId, Dict[int, Tuple[str, ...]]] = {r: {} for r in routers}
    escape: Dict[RouterId, Dict[int, str]] = {r: {} for r in routers}
    for endpoint in topology.endpoints:
        home = topology.router_of(endpoint)
        dist = topology.distances_to(home)
        for router in routers:
            if router == home:
                cands: Tuple[str, ...] = (port_local(endpoint),)
            else:
                here = dist[router]
                cands = tuple(
                    port_to(n) for n in topology.neighbors(router) if dist[n] < here
                )
            candidates[router][endpoint] = cands
            preferred = escape_tables[router][endpoint]
            escape[router][endpoint] = preferred if preferred in cands else cands[0]
    return {r: AdaptiveRoutingTable(candidates[r], escape[r]) for r in routers}


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

    Injection maps priority ``p`` onto adaptive VC ``min(p, adaptive
    VCs - 1)``, so a high-priority flow owns its buffer inside the
    adaptive class and is never head-of-line blocked there behind a
    stalled best-effort packet.
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
            # Non-numeric router ids (an arbitrary Topology graph) have
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
    for cls in (VcPolicy, DatelineVcPolicy, EscapeVcPolicy)
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
