"""Unit tests for routing-table computation and XY routing."""

import hashlib
import json
import random

import pytest

from repro.transport import topology as topo
from repro.transport.routing import (
    RoutingError,
    compute_adaptive_tables,
    compute_degraded_tables,
    compute_tables,
    port_local,
    port_to,
    surviving_distances,
    xy_route,
)
from repro.transport.topology import bfs_distances


def follow_route(topology, tables, src_ep, dst_ep, max_hops=64):
    """Walk the tables from src's router until ejection; returns hops."""
    router = topology.router_of(src_ep)
    hops = 0
    while True:
        port = tables[router][dst_ep]
        if port == port_local(dst_ep):
            return hops
        assert port.startswith("to:")
        router = next(
            n for n in topology.neighbors(router) if port == port_to(n)
        )
        hops += 1
        assert hops <= max_hops, "routing loop"


class TestTableRouting:
    @pytest.mark.parametrize(
        "topology",
        [
            topo.mesh(3, 3),
            topo.torus(3, 3),
            topo.ring(6),
            topo.star(4, endpoints=4),
            topo.tree(2, 2, endpoints=4),
            topo.single_router(4),
        ],
        ids=lambda t: t.name,
    )
    def test_tables_complete_and_loop_free(self, topology):
        tables = compute_tables(topology, "table")
        for src in topology.endpoints:
            for dst in topology.endpoints:
                hops = follow_route(topology, tables, src, dst)
                assert hops == topology.hop_distance(src, dst)

    def test_tables_deterministic(self):
        t = topo.mesh(4, 4)
        assert compute_tables(t, "table") == compute_tables(t, "table")

    def test_local_delivery_at_home_router(self):
        t = topo.mesh(2, 2)
        tables = compute_tables(t, "table")
        home = t.router_of(3)
        assert tables[home][3] == port_local(3)


class TestXyRouting:
    def test_x_first(self):
        assert xy_route((0, 0), (2, 2)) == (1, 0)
        assert xy_route((2, 0), (2, 2)) == (2, 1)

    def test_negative_direction(self):
        assert xy_route((2, 2), (0, 2)) == (1, 2)
        assert xy_route((0, 2), (0, 0)) == (0, 1)

    def test_same_router_rejected(self):
        with pytest.raises(RoutingError):
            xy_route((1, 1), (1, 1))

    def test_non_tuple_ids_rejected(self):
        with pytest.raises(RoutingError):
            xy_route(0, 1)

    def test_xy_tables_match_shortest_paths_on_mesh(self):
        t = topo.mesh(4, 3)
        tables = compute_tables(t, "xy")
        for src in t.endpoints:
            for dst in t.endpoints:
                hops = follow_route(t, tables, src, dst)
                assert hops == t.hop_distance(src, dst)

    def test_xy_tables_reject_non_mesh(self):
        t = topo.ring(4)
        with pytest.raises(RoutingError):
            compute_tables(t, "xy")


# ---------------------------------------------------------------------- #
# pinned tables: sha256 over canonical JSON, computed at the commit before
# Topology owned its adjacency (a third-party graph, per-scheme table
# loops, a separate healthy adaptive builder) and unchanged since
# ---------------------------------------------------------------------- #
def string_graph():
    return topo.custom(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
         ("b", "e"), ("e", "f"), ("f", "c")],
        {0: "a", 1: "c", 2: "e", 3: "f", 4: "d"},
        name="strings",
    )


PINNED_TABLES = {
    ("mesh4x4", "table"): "889e65dec7686877",
    ("mesh4x4", "xy"): "93004cc84ce5dca7",
    ("torus4x4", "table"): "6889a8b7f363248b",
    ("torus4x4", "dor"): "1f43036e6027a781",
    ("torus4x4", "adaptive"): "bca124ec502b2721",
    ("ring5", "table"): "0bdad1d3ae858793",
    ("ring5", "dor"): "0bdad1d3ae858793",  # the two agree on an odd ring
    ("ring5", "adaptive"): "5348a94ca9c1a526",
    ("strings", "table"): "dc067c0768792fa2",
    ("strings", "adaptive"): "95d36d9ca79a9b77",
}
PINNED_SHAPES = {
    "mesh4x4": lambda: topo.mesh(4, 4),
    "torus4x4": lambda: topo.torus(4, 4),
    "ring5": lambda: topo.ring(5),
    "strings": string_graph,
}


def table_digest(topology, scheme):
    if scheme == "adaptive":
        tables = {
            repr(router): {
                "candidates": {str(ep): list(c) for ep, c in t.candidates.items()},
                "escape": {str(ep): port for ep, port in t.escape.items()},
            }
            for router, t in compute_adaptive_tables(topology).items()
        }
    else:
        tables = {
            repr(router): {str(ep): port for ep, port in row.items()}
            for router, row in compute_tables(topology, scheme).items()
        }
    blob = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("shape,scheme", sorted(PINNED_TABLES))
def test_tables_are_pinned(shape, scheme):
    assert table_digest(PINNED_SHAPES[shape](), scheme) == PINNED_TABLES[
        (shape, scheme)
    ]


@pytest.mark.parametrize(
    "make",
    [*PINNED_SHAPES.values(), lambda: topo.torus(6, 3), lambda: topo.star(4),
     lambda: topo.tree(2, 2), lambda: topo.single_router(3)],
)
def test_healthy_adaptive_tables_are_the_degraded_builder_with_nothing_down(make):
    t = make()
    healthy = compute_adaptive_tables(t)
    rebuilt, unroutable = compute_degraded_tables(
        t, set(), set(), {r: table.escape for r, table in healthy.items()}
    )
    assert not unroutable
    for router in t.routers:
        assert rebuilt[router].candidates == healthy[router].candidates
        assert rebuilt[router].escape == healthy[router].escape
        for endpoint in t.endpoints:  # canonical order, closer neighbours only
            if t.router_of(endpoint) != router:
                assert healthy[router].outputs(endpoint) == tuple(
                    port_to(n)
                    for n in t.minimal_neighbors(router, t.router_of(endpoint))
                )


# ---------------------------------------------------------------------- #
# the one search against an all-pairs reference
# ---------------------------------------------------------------------- #
def floyd_warshall(successors):
    """All-pairs hop counts of a directed graph; unreachable pairs absent."""
    nodes = list(successors)
    dist = {a: {a: 0} for a in nodes}
    for a in nodes:
        for b in successors[a]:
            dist[a][b] = 1
    for k in nodes:
        for a in nodes:
            if k not in dist[a]:
                continue
            for b, tail in dist[k].items():
                if dist[a][k] + tail < dist[a].get(b, len(nodes)):
                    dist[a][b] = dist[a][k] + tail
    return dist


def random_connected_graph(rng):
    """A random spanning tree plus a few chords, ids shuffled."""
    ids = list(range(rng.randint(2, 12)))
    rng.shuffle(ids)
    links = [(ids[i], ids[rng.randrange(i)]) for i in range(1, len(ids))]
    links += [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, len(ids)))]
    return topo.custom(links, {ep: r for ep, r in enumerate(sorted(ids))})


SEARCH_SHAPES = [
    topo.mesh(3, 4), topo.mesh(1, 1), topo.torus(4, 4), topo.torus(6, 3),
    topo.ring(2), topo.ring(7), topo.star(5), topo.tree(3, 2), topo.tree(2, 3),
    topo.single_router(2), string_graph(),
] + [random_connected_graph(random.Random(seed)) for seed in range(20)]


@pytest.mark.parametrize("topology", SEARCH_SHAPES, ids=lambda t: t.name)
def test_bfs_distances_match_floyd_warshall(topology):
    routers = topology.routers
    reference = floyd_warshall({r: topology.neighbors(r) for r in routers})
    for router in routers:
        assert bfs_distances(topology.neighbors, router) == reference[router]
        assert topology.distances_to(router) == reference[router]
    assert topology.diameter() == max(max(row.values()) for row in reference.values())

    # Directed: a random down-set of link directions and output ports, as a
    # fault epoch leaves it.  distances_to(home)[r] is r's hop count *to* home.
    rng = random.Random(len(routers))
    directed = [(a, b) for a, b in topology.links] + [(b, a) for a, b in topology.links]
    for _ in range(4):
        down_links = {edge for edge in directed if rng.random() < 0.25}
        down_ports = {(a, port_to(b)) for a, b in directed if rng.random() < 0.1}
        alive, distances_to = surviving_distances(topology, down_links, down_ports)
        assert alive == {
            a: [
                b for b in topology.neighbors(a)
                if (a, b) not in down_links and (a, port_to(b)) not in down_ports
            ]
            for a in routers
        }
        reference = floyd_warshall(alive)
        for home in routers:
            assert distances_to(home) == {
                r: reference[r][home] for r in routers if home in reference[r]
            }
