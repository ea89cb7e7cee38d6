"""NoC topologies.

A :class:`Topology` is the fabric's one router graph — an undirected
adjacency map it owns, in canonical :func:`router_sort_key` order — plus
a mapping from *endpoint ids* (the transaction layer's SlvAddr/MstAddr
space) to the router each NIU attaches to.  Every hop distance in the
tree (routing tables, minimal output sets, surviving-graph reroutes
under faults) comes from one search, :func:`bfs_distances`.
Constructors cover the shapes used by the benchmarks: 2-D mesh, torus,
ring, star, balanced tree, and arbitrary link lists for irregular SoC
floorplans.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

RouterId = Hashable


@lru_cache(maxsize=4096)
def router_sort_key(router: RouterId):
    """Canonical, type-aware sort key for router ids.

    Numeric ids sort numerically and tuple ids element-wise, so router
    ``(1, 10)`` orders *after* ``(1, 2)`` — ``key=str`` put it first,
    which silently changed port/neighbor (and hence arbitration
    tie-break) order between fabrics narrower and wider than 10 routers.
    Categories (numbers, strings, tuples) are kept disjoint so
    heterogeneous id sets still have a total order.

    Memoised: every build sorts the same few ids hundreds of times.  Ids
    that compare equal (``1`` / ``1.0`` / ``True``) share one cache entry
    and already had equal keys.
    """
    if isinstance(router, tuple):
        return (2, tuple(router_sort_key(element) for element in router))
    if isinstance(router, bool):  # bool is an int subclass; keep it numeric
        return (0, int(router), "")
    if isinstance(router, (int, float)):
        return (0, router, "")
    return (1, 0, str(router))


def bfs_distances(
    successors: Callable[[RouterId], Iterable[RouterId]], start: RouterId
) -> Dict[RouterId, int]:
    """Hop distance from ``start`` to every node ``successors`` reaches.

    The tree's one breadth-first search.  ``successors(node)`` yields the
    nodes one hop on; feed it a reversed adjacency to get distances *to*
    ``start`` on a directed graph (the surviving graph under faults).
    """
    dist = {start: 0}
    frontier = [start]
    while frontier:
        reached: List[RouterId] = []
        for node in frontier:
            hops = dist[node] + 1
            for successor in successors(node):
                if successor not in dist:
                    dist[successor] = hops
                    reached.append(successor)
        frontier = reached
    return dist


class Topology:
    """Router graph + endpoint attachment map.

    ``links`` are undirected router pairs (a repeat, in either direction,
    is the same link); ``routers`` names routers that may have no link at
    all — the single-router crossbar is the one shape that needs it.
    """

    def __init__(
        self,
        links: Iterable[Tuple[RouterId, RouterId]],
        endpoint_router: Dict[int, RouterId],
        name: str = "custom",
        routers: Iterable[RouterId] = (),
    ) -> None:
        neighbors: Dict[RouterId, set] = {router: set() for router in routers}
        for a, b in links:
            if a == b:
                raise ValueError(
                    f"topology {name!r}: link {a!r} -- {b!r} joins a router "
                    f"to itself"
                )
            neighbors.setdefault(a, set()).add(b)
            neighbors.setdefault(b, set()).add(a)
        if not neighbors:
            raise ValueError(f"topology {name!r}: no routers")
        # Canonical order throughout: port, link and arbitration tie-break
        # order all follow from it, whatever order the links were given in.
        self._neighbors: Dict[RouterId, List[RouterId]] = {
            router: sorted(neighbors[router], key=router_sort_key)
            for router in sorted(neighbors, key=router_sort_key)
        }
        self.name = name
        # BFS distance maps keyed by destination router, computed lazily
        # and cached: table and adaptive routing ask for the minimal-
        # neighbour set of every (router, destination) pair, which would
        # be O(V * E) BFS runs without the cache.
        self._dist_maps: Dict[RouterId, Dict[RouterId, int]] = {}
        reached = self.distances_to(next(iter(self._neighbors)))
        if len(reached) != len(self._neighbors):
            raise ValueError(f"topology {name!r}: router graph is not connected")
        for endpoint, router in endpoint_router.items():
            if router not in self._neighbors:
                raise ValueError(
                    f"topology {name!r}: endpoint {endpoint} attaches to "
                    f"unknown router {router!r}"
                )
            if endpoint < 0:
                raise ValueError(f"topology {name!r}: negative endpoint id")
        self.endpoint_router = dict(endpoint_router)
        # Reverse index so wiring never rescans the whole endpoint map
        # per router (endpoints_at used to be O(endpoints) per call).
        self._router_endpoints: Dict[RouterId, List[int]] = {}
        for endpoint in sorted(self.endpoint_router):
            self._router_endpoints.setdefault(
                self.endpoint_router[endpoint], []
            ).append(endpoint)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def routers(self) -> List[RouterId]:
        return list(self._neighbors)

    @property
    def links(self) -> List[Tuple[RouterId, RouterId]]:
        """Each undirected link once, smaller id first, canonical order."""
        return [
            (a, b)
            for a, adjacent in self._neighbors.items()
            for b in adjacent
            if router_sort_key(a) < router_sort_key(b)
        ]

    @property
    def endpoints(self) -> List[int]:
        return sorted(self.endpoint_router)

    def neighbors(self, router: RouterId) -> List[RouterId]:
        return list(self._neighbors[router])

    def has_link(self, a: RouterId, b: RouterId) -> bool:
        return b in self._neighbors.get(a, ())

    def endpoints_at(self, router: RouterId) -> List[int]:
        """Endpoints attached to ``router`` (precomputed, ascending)."""
        return list(self._router_endpoints.get(router, ()))

    def router_of(self, endpoint: int) -> RouterId:
        try:
            return self.endpoint_router[endpoint]
        except KeyError:
            raise KeyError(f"unknown endpoint {endpoint}") from None

    def distances_to(self, dest_router: RouterId) -> Dict[RouterId, int]:
        """BFS hop distances from every router to ``dest_router`` (cached)."""
        dist = self._dist_maps.get(dest_router)
        if dist is None:
            dist = bfs_distances(self._neighbors.__getitem__, dest_router)
            self._dist_maps[dest_router] = dist
        return dist

    def minimal_neighbors(
        self, router: RouterId, dest_router: RouterId
    ) -> List[RouterId]:
        """Neighbours of ``router`` strictly closer to ``dest_router``.

        This is the *minimal output set* of adaptive routing: forwarding
        to any of these neighbours keeps the path shortest.  On a mesh or
        torus it is exactly the minimal quadrant (at most one neighbour
        per dimension with a non-zero offset, both ring directions when a
        torus offset is an even split).  Returned in canonical
        :func:`router_sort_key` order so table construction — and hence
        arbitration tie-breaking — is reproducible.
        """
        dist = self.distances_to(dest_router)
        here = dist[router]
        return [n for n in self._neighbors[router] if dist[n] < here]

    def hop_distance(self, src_endpoint: int, dst_endpoint: int) -> int:
        """Router hops between two endpoints (0 if they share a router)."""
        return self.distances_to(self.router_of(dst_endpoint))[
            self.router_of(src_endpoint)
        ]

    def diameter(self) -> int:
        return max(
            max(self.distances_to(router).values()) for router in self._neighbors
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Topology {self.name!r} routers={len(self._neighbors)} "
            f"links={len(self.links)} "
            f"endpoints={len(self.endpoint_router)}>"
        )


# ---------------------------------------------------------------------- #
# constructors
# ---------------------------------------------------------------------- #
def _auto_attach(
    routers: Sequence[RouterId], endpoints: Optional[int]
) -> Dict[int, RouterId]:
    """Spread ``endpoints`` endpoint ids round-robin over ``routers``."""
    count = endpoints if endpoints is not None else len(routers)
    return {ep: routers[ep % len(routers)] for ep in range(count)}


def _grid(
    width: int, height: int, endpoints: Optional[int], wrap: bool
) -> Topology:
    if width < 1 or height < 1:
        raise ValueError("mesh dimensions must be >= 1")
    links = []
    for x in range(width):
        for y in range(height):
            if x > 0:
                links.append(((x - 1, y), (x, y)))
            if y > 0:
                links.append(((x, y - 1), (x, y)))
    if wrap and height > 2:
        links.extend(((x, 0), (x, height - 1)) for x in range(width))
    if wrap and width > 2:
        links.extend(((0, y), (width - 1, y)) for y in range(height))
    routers = [(x, y) for y in range(height) for x in range(width)]
    return Topology(
        links,
        _auto_attach(routers, endpoints),
        name=f"{'torus' if wrap else 'mesh'}{width}x{height}",
        routers=routers,
    )


def mesh(
    width: int,
    height: int,
    endpoints: Optional[int] = None,
) -> Topology:
    """2-D mesh; router ids are ``(x, y)`` tuples (enables XY routing)."""
    return _grid(width, height, endpoints, wrap=False)


def torus(width: int, height: int, endpoints: Optional[int] = None) -> Topology:
    """2-D torus (mesh + wraparound links)."""
    return _grid(width, height, endpoints, wrap=True)


def ring(routers: int, endpoints: Optional[int] = None) -> Topology:
    """Unidirectionally-indexed ring of ``routers`` routers."""
    if routers < 2:
        raise ValueError("ring needs >= 2 routers")
    ids = list(range(routers))
    links = [(i, (i + 1) % routers) for i in ids]
    return Topology(links, _auto_attach(ids, endpoints), name=f"ring{routers}")


def star(leaves: int, endpoints: Optional[int] = None) -> Topology:
    """One hub router with ``leaves`` leaf routers (crossbar-ish)."""
    if leaves < 1:
        raise ValueError("star needs >= 1 leaf")
    ids = list(range(1, leaves + 1))  # endpoints attach to leaves
    links = [(0, leaf) for leaf in ids]  # router 0 is the hub
    return Topology(links, _auto_attach(ids, endpoints), name=f"star{leaves}")


def tree(depth: int, fanout: int = 2, endpoints: Optional[int] = None) -> Topology:
    """Balanced tree; endpoints attach to the leaves."""
    if depth < 1:
        raise ValueError("tree depth must be >= 1")
    # Routers are numbered breadth-first from the root, 0: the parent of
    # router ``child`` is ``(child - 1) // fanout``, the last level the leaves.
    count = sum(fanout**level for level in range(depth + 1))
    links = [((child - 1) // fanout, child) for child in range(1, count)]
    leaves = list(range(count - fanout**depth, count))
    return Topology(
        links, _auto_attach(leaves, endpoints), name=f"tree_d{depth}_f{fanout}"
    )


def single_router(endpoints: int) -> Topology:
    """All endpoints on one router — the degenerate crossbar case."""
    return Topology(
        [], {ep: 0 for ep in range(endpoints)}, name="xbar", routers=[0]
    )


def custom(
    links: Iterable[Tuple[RouterId, RouterId]],
    endpoint_router: Dict[int, RouterId],
    name: str = "custom",
) -> Topology:
    """Arbitrary router graph for irregular SoC floorplans."""
    return Topology(links, endpoint_router, name=name)
