"""Unit tests for topology constructors."""

import pytest

from repro.transport import topology as topo


class TestMesh:
    def test_router_and_link_counts(self):
        t = topo.mesh(3, 3)
        assert len(t.routers) == 9
        assert len(t.links) == 12  # 2*w*h - w - h

    def test_default_endpoint_per_router(self):
        t = topo.mesh(2, 2)
        assert t.endpoints == [0, 1, 2, 3]

    def test_endpoint_oversubscription_round_robins(self):
        t = topo.mesh(2, 2, endpoints=6)
        assert len(t.endpoints) == 6
        assert t.router_of(0) == t.router_of(4)

    def test_hop_distance(self):
        t = topo.mesh(3, 3)
        assert t.hop_distance(0, 0) == 0
        # endpoint 0 -> router (0,0), endpoint 8 -> router (2,2)
        assert t.hop_distance(0, 8) == 4

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ValueError):
            topo.mesh(0, 3)


class TestOtherShapes:
    def test_torus_has_wraparound(self):
        t = topo.torus(3, 3)
        assert t.has_link((0, 0), (2, 0)) and t.has_link((2, 0), (0, 0))
        assert t.has_link((0, 0), (0, 2))
        assert not t.has_link((0, 0), (1, 1))
        assert t.diameter() <= topo.mesh(3, 3).diameter()

    def test_ring(self):
        t = topo.ring(5)
        assert t.links == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        assert all(len(t.neighbors(r)) == 2 for r in t.routers)

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            topo.ring(1)

    def test_star_endpoints_on_leaves(self):
        t = topo.star(4, endpoints=4)
        for ep in t.endpoints:
            assert t.router_of(ep) != 0  # hub carries no endpoint

    def test_tree_endpoints_on_leaves(self):
        t = topo.tree(depth=2, fanout=2, endpoints=4)
        for ep in t.endpoints:
            assert len(t.neighbors(t.router_of(ep))) == 1

    def test_single_router_xbar(self):
        t = topo.single_router(6)
        assert t.routers == [0] and t.links == []
        assert all(t.router_of(ep) == 0 for ep in range(6))

    def test_custom(self):
        t = topo.custom([(0, 1), (1, 2)], {0: 0, 1: 2})
        assert t.hop_distance(0, 1) == 2


class TestEndpointIndex:
    def test_endpoints_at_matches_attachment_map(self):
        t = topo.mesh(2, 2, endpoints=6)
        for router in t.routers:
            expected = sorted(
                ep for ep, r in t.endpoint_router.items() if r == router
            )
            assert t.endpoints_at(router) == expected

    def test_endpoints_at_unknown_router_is_empty(self):
        t = topo.ring(3)
        assert t.endpoints_at("nonexistent") == []

    def test_index_is_precomputed_and_stable(self):
        t = topo.star(4, endpoints=8)
        first = t.endpoints_at(1)
        # Returned lists are copies: callers cannot corrupt the index.
        first.append(999)
        assert 999 not in t.endpoints_at(1)

    def test_every_endpoint_appears_exactly_once(self):
        t = topo.tree(depth=2, fanout=2, endpoints=5)
        seen = [ep for r in t.routers for ep in t.endpoints_at(r)]
        assert sorted(seen) == t.endpoints


class TestCanonicalOrdering:
    """Router/neighbor ordering is numeric, not lexicographic: with
    ``key=str``, router ``(1, 10)`` sorted before ``(1, 2)`` as soon as a
    fabric grew wider than 10, silently changing arbitration tie-break
    order between small and large meshes.  These pin the canonical
    tuple-key ordering."""

    def test_wide_ring_routers_sort_numerically(self):
        t = topo.ring(12)
        assert t.routers == list(range(12))  # str sort gave 0,1,10,11,2,…

    def test_wide_mesh_neighbors_sort_elementwise(self):
        t = topo.mesh(2, 12)
        assert t.neighbors((0, 10)) == [(0, 9), (0, 11), (1, 10)]
        assert t.neighbors((1, 2)) == [(0, 2), (1, 1), (1, 3)]

    def test_router_sort_key_orders_double_digit_tuples(self):
        assert topo.router_sort_key((1, 2)) < topo.router_sort_key((1, 10))
        assert sorted([(1, 10), (1, 2), (0, 11)], key=topo.router_sort_key) == [
            (0, 11), (1, 2), (1, 10)
        ]

    def test_ordering_consistent_between_narrow_and_wide(self):
        """The relative order of a router pair never depends on fabric
        width (the str-key bug made it flip past width 10)."""
        narrow = topo.mesh(2, 3)
        wide = topo.mesh(2, 12)
        common = [r for r in narrow.routers if r in set(wide.routers)]
        assert common == [r for r in wide.routers if r in set(narrow.routers)]


class TestValidation:
    def test_disconnected_graph_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            topo.Topology([(0, 1), (2, 3)], {0: 0})

    def test_endpoint_on_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="unknown router 99"):
            topo.Topology([(0, 1)], {0: 99})

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError, match="negative endpoint"):
            topo.Topology([(0, 1)], {-1: 0})

    def test_no_routers_rejected(self):
        with pytest.raises(ValueError, match="topology 'floorplan': no routers"):
            topo.custom([], {0: "a"}, name="floorplan")

    def test_self_link_rejected(self):
        with pytest.raises(ValueError, match="topology 'floorplan': link 'a' -- 'a'"):
            topo.custom(
                [("a", "a"), ("a", "b")], {0: "a", 1: "b"}, name="floorplan"
            )

    def test_repeated_and_reversed_links_collapse(self):
        t = topo.custom([("b", "a"), ("a", "b"), ("b", "a"), ("c", "b")], {0: "a"})
        assert t.links == [("a", "b"), ("b", "c")]
        assert t.neighbors("b") == ["a", "c"]

    def test_linkless_router_is_named(self):
        t = topo.Topology([], {0: "hub", 1: "hub"}, routers=["hub"])
        assert t.routers == ["hub"] and t.diameter() == 0
        with pytest.raises(ValueError, match="not connected"):
            topo.Topology([(0, 1)], {0: 0}, routers=[2])
