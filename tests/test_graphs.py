"""Tests for the graph substrate (topologies + properties)."""

from __future__ import annotations

import random

import pytest

from repro.graphs import (
    Graph,
    bfs_distances,
    clique,
    cycle_graph,
    diameter,
    distance,
    eccentricity,
    grid_graph,
    is_connected,
    k2k_gadget,
    path_graph,
    random_gnp,
    random_tree,
    star_graph,
)


class TestGraphBasics:
    def test_dedup_and_sorted_adjacency(self):
        g = Graph(3, [(0, 1), (1, 0), (2, 1)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.neighbors(1) == (0, 2)

    def test_rejects_self_loops_and_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])
        with pytest.raises(ValueError):
            Graph(0, [])

    def test_degree_and_max_degree(self):
        g = star_graph(5)
        assert g.degree(0) == 4
        assert g.degree(3) == 1
        assert g.max_degree == 4

    def test_neighbor_masks_match_adjacency(self):
        g = random_gnp(12, 0.4, random.Random(3))
        for v in range(g.n):
            mask = g.neighbor_mask(v)
            assert mask == sum(1 << w for w in g.neighbors(v))
            assert not (mask >> v) & 1  # never contains the vertex itself
        # cached: same tuple object on every call
        assert g.neighbor_masks() is g.neighbor_masks()

    def test_csr_matches_adjacency(self):
        g = random_gnp(10, 0.5, random.Random(7))
        indptr, indices = g.csr()
        assert len(indptr) == g.n + 1
        assert indptr[0] == 0
        for v in range(g.n):
            assert tuple(indices[indptr[v]:indptr[v + 1]]) == g.neighbors(v)
        assert g.csr() is g.csr()  # cached

    def test_masks_and_csr_on_edgeless_graph(self):
        g = Graph(3, [])
        assert g.neighbor_masks() == (0, 0, 0)
        indptr, indices = g.csr()
        assert list(indptr) == [0, 0, 0, 0]
        assert len(indices) == 0

    def test_has_edge_small_and_large_adjacency(self):
        g = clique(12)
        assert g.has_edge(0, 11)
        assert not g.has_edge(0, 0) if True else None
        p = path_graph(4)
        assert p.has_edge(1, 2)
        assert not p.has_edge(0, 3)


class TestTopologies:
    def test_path(self):
        g = path_graph(5)
        assert len(g.edges) == 4
        assert diameter(g) == 4
        assert g.max_degree == 2

    def test_cycle(self):
        g = cycle_graph(8)
        assert len(g.edges) == 8
        assert diameter(g) == 4
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_clique(self):
        g = clique(6)
        assert len(g.edges) == 15
        assert diameter(g) == 1

    def test_k2k_gadget(self):
        g, s, t = k2k_gadget(4)
        assert g.n == 6
        assert not g.has_edge(s, t)
        assert all(g.has_edge(s, v) and g.has_edge(t, v) for v in range(2, 6))
        assert diameter(g) == 2
        assert g.max_degree == 4

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.n == 12
        assert diameter(g) == 5
        assert g.max_degree == 4

    def test_star(self):
        assert diameter(star_graph(7)) == 2

    def test_random_tree_connected_acyclic(self):
        g = random_tree(40, random.Random(3))
        assert is_connected(g)
        assert len(g.edges) == 39

    def test_random_gnp_connected(self):
        g = random_gnp(30, 0.05, random.Random(1))
        assert is_connected(g)


class TestProperties:
    def test_bfs_distances_path(self):
        g = path_graph(5)
        assert bfs_distances(g, 0) == [0, 1, 2, 3, 4]
        assert distance(g, 0, 4) == 4

    def test_eccentricity_disconnected_raises(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            eccentricity(g, 0)

    def test_diameter_single_vertex(self):
        assert diameter(Graph(1, [])) == 0

    def test_is_connected(self):
        assert is_connected(path_graph(4))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
