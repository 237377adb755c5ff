"""Tests for the graph substrate (ExplicitGraph, CompleteGraph)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.overlays.graph import CompleteGraph, ExplicitGraph


class TestExplicitGraph:
    def test_basic_adjacency(self):
        g = ExplicitGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.neighbors(1) == (0, 2)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.degree(0) == 1 and g.degree(1) == 2

    def test_duplicate_edges_collapse(self):
        g = ExplicitGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ConfigError):
            ExplicitGraph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            ExplicitGraph(3, [(0, 3)])
        with pytest.raises(ConfigError):
            ExplicitGraph(0)

    def test_node_range_checked_on_queries(self):
        g = ExplicitGraph(3, [(0, 1)])
        with pytest.raises(ConfigError):
            g.neighbors(5)
        with pytest.raises(ConfigError):
            g.has_edge(0, 5)

    def test_edges_iteration(self):
        g = ExplicitGraph(4, [(2, 1), (0, 3)])
        assert sorted(g.edges()) == [(0, 3), (1, 2)]

    def test_degree_stats(self):
        g = ExplicitGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.max_degree == 3
        assert g.min_degree == 1
        assert g.average_degree == pytest.approx(1.5)
        assert g.degree_histogram() == {3: 1, 1: 3}

    def test_bfs_distances_and_connectivity(self):
        g = ExplicitGraph(5, [(0, 1), (1, 2), (3, 4)])
        d = g.bfs_distances(0)
        assert d == [0, 1, 2, -1, -1]
        assert not g.is_connected()
        assert ExplicitGraph(3, [(0, 1), (1, 2)]).is_connected()

    def test_diameter(self):
        path = ExplicitGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert path.diameter() == 3
        with pytest.raises(ConfigError):
            ExplicitGraph(3, [(0, 1)]).diameter()

    def test_with_edge(self):
        g = ExplicitGraph(3, [(0, 1)])
        g2 = g.with_edge(1, 2)
        assert g2.has_edge(1, 2)
        assert not g.has_edge(1, 2)

    def test_single_node(self):
        g = ExplicitGraph(1)
        assert g.is_connected()
        assert g.edge_count == 0


class TestCompleteGraph:
    def test_everything_adjacent(self):
        g = CompleteGraph(5)
        assert g.has_edge(0, 4)
        assert not g.has_edge(2, 2)
        assert g.degree(3) == 4
        assert set(g.neighbors(2)) == {0, 1, 3, 4}

    def test_edge_count(self):
        assert CompleteGraph(10).edge_count == 45

    def test_big_graph_is_cheap(self):
        g = CompleteGraph(100000)
        assert g.degree(5) == 99999  # no adjacency materialised

    def test_neighbor_caching_bounded(self):
        g = CompleteGraph(50)
        for v in range(50):
            g.neighbors(v)
        assert len(g._cached_neighbors) <= 64

    def test_neighbors_match_filter_definition_past_cache(self):
        # Above 64 nodes most tuples are rebuilt on every call; each must
        # still be every other node in ascending order.
        g = CompleteGraph(200)
        for v in range(200):
            assert g.neighbors(v) == tuple(w for w in range(200) if w != v)
        assert len(g._cached_neighbors) == 64

    def test_diameter_one(self):
        assert CompleteGraph(4).diameter() == 1

    @given(st.integers(min_value=2, max_value=40))
    def test_matches_explicit_complete(self, n):
        implicit = CompleteGraph(n)
        explicit = ExplicitGraph(
            n, [(a, b) for a in range(n) for b in range(a + 1, n)]
        )
        assert implicit.edge_count == explicit.edge_count
        for v in range(n):
            assert tuple(implicit.neighbors(v)) == explicit.neighbors(v)
