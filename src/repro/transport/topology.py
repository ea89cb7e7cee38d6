"""NoC topologies.

A :class:`Topology` is an undirected router graph (networkx) plus a
mapping from *endpoint ids* (the transaction layer's SlvAddr/MstAddr
space) to the router each NIU attaches to.  Constructors cover the shapes
used by the benchmarks: 2-D mesh, torus, ring, star, binary fat-tree-ish
tree, and arbitrary graphs for irregular SoC floorplans.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

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


class Topology:
    """Router graph + endpoint attachment map."""

    def __init__(
        self,
        graph: nx.Graph,
        endpoint_router: Dict[int, RouterId],
        name: str = "custom",
    ) -> None:
        if not nx.is_connected(graph):
            raise ValueError(f"topology {name!r}: router graph is not connected")
        for endpoint, router in endpoint_router.items():
            if router not in graph:
                raise ValueError(
                    f"topology {name!r}: endpoint {endpoint} attaches to "
                    f"unknown router {router!r}"
                )
            if endpoint < 0:
                raise ValueError(f"topology {name!r}: negative endpoint id")
        self.graph = graph
        self.endpoint_router = dict(endpoint_router)
        self.name = name
        # Reverse index so wiring never rescans the whole endpoint map
        # per router (endpoints_at used to be O(endpoints) per call).
        self._router_endpoints: Dict[RouterId, List[int]] = {}
        for endpoint in sorted(self.endpoint_router):
            self._router_endpoints.setdefault(
                self.endpoint_router[endpoint], []
            ).append(endpoint)
        # BFS distance maps keyed by destination router, computed lazily
        # and cached: adaptive routing asks for the minimal-neighbour set
        # of every (router, destination) pair, which would be O(V * E)
        # BFS runs without the cache.
        self._dist_maps: Dict[RouterId, Dict[RouterId, int]] = {}

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def routers(self) -> List[RouterId]:
        return sorted(self.graph.nodes, key=router_sort_key)

    @property
    def endpoints(self) -> List[int]:
        return sorted(self.endpoint_router)

    def neighbors(self, router: RouterId) -> List[RouterId]:
        return sorted(self.graph.neighbors(router), key=router_sort_key)

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
            dist = nx.single_source_shortest_path_length(self.graph, dest_router)
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
        return sorted(
            (n for n in self.graph.neighbors(router) if dist[n] < here),
            key=router_sort_key,
        )

    def hop_distance(self, src_endpoint: int, dst_endpoint: int) -> int:
        """Router hops between two endpoints (0 if they share a router)."""
        return nx.shortest_path_length(
            self.graph,
            self.router_of(src_endpoint),
            self.router_of(dst_endpoint),
        )

    def diameter(self) -> int:
        return nx.diameter(self.graph)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Topology {self.name!r} routers={self.graph.number_of_nodes()} "
            f"links={self.graph.number_of_edges()} "
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


def mesh(
    width: int,
    height: int,
    endpoints: Optional[int] = None,
) -> Topology:
    """2-D mesh; router ids are ``(x, y)`` tuples (enables XY routing)."""
    if width < 1 or height < 1:
        raise ValueError("mesh dimensions must be >= 1")
    graph = nx.Graph()
    for x in range(width):
        for y in range(height):
            graph.add_node((x, y))
            if x > 0:
                graph.add_edge((x - 1, y), (x, y))
            if y > 0:
                graph.add_edge((x, y - 1), (x, y))
    routers = [(x, y) for y in range(height) for x in range(width)]
    return Topology(graph, _auto_attach(routers, endpoints), name=f"mesh{width}x{height}")


def torus(width: int, height: int, endpoints: Optional[int] = None) -> Topology:
    """2-D torus (mesh + wraparound links)."""
    topo = mesh(width, height, endpoints)
    graph = topo.graph
    for x in range(width):
        if height > 2:
            graph.add_edge((x, 0), (x, height - 1))
    for y in range(height):
        if width > 2:
            graph.add_edge((0, y), (width - 1, y))
    return Topology(graph, topo.endpoint_router, name=f"torus{width}x{height}")


def ring(routers: int, endpoints: Optional[int] = None) -> Topology:
    """Unidirectionally-indexed ring of ``routers`` routers."""
    if routers < 2:
        raise ValueError("ring needs >= 2 routers")
    graph = nx.cycle_graph(routers)
    ids = list(range(routers))
    return Topology(graph, _auto_attach(ids, endpoints), name=f"ring{routers}")


def star(leaves: int, endpoints: Optional[int] = None) -> Topology:
    """One hub router with ``leaves`` leaf routers (crossbar-ish)."""
    if leaves < 1:
        raise ValueError("star needs >= 1 leaf")
    graph = nx.star_graph(leaves)  # node 0 is the hub
    ids = list(range(1, leaves + 1))  # endpoints attach to leaves
    return Topology(graph, _auto_attach(ids, endpoints), name=f"star{leaves}")


def tree(depth: int, fanout: int = 2, endpoints: Optional[int] = None) -> Topology:
    """Balanced tree; endpoints attach to the leaves."""
    if depth < 1:
        raise ValueError("tree depth must be >= 1")
    graph = nx.balanced_tree(fanout, depth)
    leaves = sorted(n for n in graph.nodes if graph.degree[n] == 1 and n != 0)
    return Topology(
        graph, _auto_attach(leaves, endpoints), name=f"tree_d{depth}_f{fanout}"
    )


def single_router(endpoints: int) -> Topology:
    """All endpoints on one router — the degenerate crossbar case."""
    graph = nx.Graph()
    graph.add_node(0)
    return Topology(graph, {ep: 0 for ep in range(endpoints)}, name="xbar")


def custom(
    edges: Iterable[Tuple[RouterId, RouterId]],
    endpoint_router: Dict[int, RouterId],
    name: str = "custom",
) -> Topology:
    """Arbitrary router graph for irregular SoC floorplans."""
    graph = nx.Graph()
    graph.add_edges_from(edges)
    return Topology(graph, endpoint_router, name=name)
