"""Tests for the graph substrate (topologies + properties)."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _set_based_graph(n, edges):
    """The set-based constructor ``Graph`` used before it built its
    adjacency in one streaming pass, kept as the oracle: returns
    ``(adjacency, edges)`` or raises the same ``ValueError``."""
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    adj = [set() for _ in range(n)]
    edge_set = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in edge_set:
            continue
        edge_set.add((a, b))
        adj[u].add(v)
        adj[v].add(u)
    return tuple(tuple(sorted(s)) for s in adj), tuple(sorted(edge_set))


@st.composite
def _edge_lists(draw):
    """``(n, edges)``: edges between distinct vertices, some repeated in
    either orientation, with up to two self-loops or out-of-range
    endpoints inserted anywhere."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = []
    if n > 1:
        edges = draw(st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=1, max_value=n - 1),
            ).map(lambda p: (p[0], (p[0] + p[1]) % n)),
            max_size=30,
        ))
    if edges:
        for u, v in draw(st.lists(st.sampled_from(edges), max_size=10)):
            at = draw(st.integers(min_value=0, max_value=len(edges)))
            edges.insert(at, (v, u) if draw(st.booleans()) else (u, v))
    endpoint = st.integers(min_value=-3, max_value=n + 3)
    bad = st.one_of(
        endpoint.map(lambda v: (v, v)), st.tuples(endpoint, endpoint)
    )
    for edge in draw(st.lists(bad, max_size=2)):
        at = draw(st.integers(min_value=0, max_value=len(edges)))
        edges.insert(at, edge)
    return n, edges


@st.composite
def _graphs_with_hubs(draw):
    """``(n, edges)`` on 1..9 vertices: every hub is joined to every other
    vertex, so its row is complete, and the other edges are random
    pairs, which may repeat or leave a vertex isolated."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    hubs = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    edges = [(u, v) for u, v in pairs if u in hubs or v in hubs]
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs), max_size=12))
    return n, edges


def _error(n, edges) -> str:
    """The message of the ``ValueError`` that ``Graph(n, edges)`` raises."""
    with pytest.raises(ValueError) as raised:
        Graph(n, edges)
    return str(raised.value)


class TestGraphBasics:
    def test_dedup_and_sorted_adjacency(self):
        g = Graph(3, [(0, 1), (1, 0), (2, 1)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.neighbors(1) == (0, 2)

    def test_rejects_self_loops_and_bad_edges(self):
        assert _error(2, [(0, 0)]) == "self-loop at vertex 0 is not allowed"
        assert _error(2, [(0, 5)]) == "edge (0, 5) out of range for n=2"
        assert _error(2, [(-1, 1)]) == "edge (-1, 1) out of range for n=2"
        # The range check comes first, and the first failing edge is named.
        assert _error(2, [(5, 5)]) == "edge (5, 5) out of range for n=2"
        assert _error(3, [(0, 1), (2, 2), (0, 9)]) == (
            "self-loop at vertex 2 is not allowed"
        )
        assert _error(0, []) == "graph needs at least one vertex, got n=0"

    @settings(max_examples=300, deadline=None)
    @given(case=_edge_lists())
    @example(case=(1, []))
    @example(case=(1, [(0, 0)]))
    def test_matches_set_based_oracle(self, case):
        """Adjacency, edges, degrees, CSR, masks and repr equal the
        set-based constructor's, or both raise the same error; a
        one-shot generator of the edges builds the same graph."""
        n, edges = case
        try:
            adj, oracle_edges = _set_based_graph(n, edges)
        except ValueError as err:
            assert _error(n, edges) == str(err)
            assert _error(n, iter(edges)) == str(err)
            return
        indptr, indices = [0], []
        for neighbors in adj:
            indices.extend(neighbors)
            indptr.append(len(indices))
        for source in (edges, (edge for edge in edges)):
            g = Graph(n, source)
            assert repr(g) == f"Graph(n={n}, m={len(oracle_edges)})"
            assert tuple(g.neighbors(v) for v in range(n)) == adj
            assert g.edges == oracle_edges
            assert g.max_degree == max(len(neighbors) for neighbors in adj)
            assert [list(a) for a in g.csr()] == [indptr, indices]
            assert g.neighbor_masks() == tuple(
                sum(1 << w for w in neighbors) for neighbors in adj
            )

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

    @settings(max_examples=40, deadline=None)
    @given(case=_graphs_with_hubs())
    @example(case=(1, []))
    @example(case=(2, []))
    @example(case=(2, [(0, 1)]))
    @example(case=(4, [(0, 1), (0, 2), (0, 3)]))
    @example(case=(5, [(1, 2), (2, 3)]))
    def test_neighbor_masks_equal_a_per_neighbor_fold(self, case):
        """Complete rows (degree n - 1) and the rest both equal one
        ``mask |= 1 << w`` per neighbor, and so do a complete graph's
        masks when ``clique`` builds it."""
        n, edges = case
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        expected = []
        for neighbors in adj:
            mask = 0
            for w in neighbors:
                mask |= 1 << w
            expected.append(mask)
        assert Graph(n, edges).neighbor_masks() == tuple(expected)
        if all(len(neighbors) == n - 1 for neighbors in adj):
            assert clique(n).neighbor_masks() == tuple(expected)

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

    @pytest.mark.parametrize("n", [*range(1, 71), 255, 256, 257, 512])
    def test_clique_equals_the_edge_built_graph(self, n):
        """``clique`` builds its rows without ``Graph.__init__``; every
        view equals the graph built from all n(n - 1)/2 pairs."""
        g = clique(n)
        oracle = Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))
        assert [g.neighbors(v) for v in range(n)] == [
            oracle.neighbors(v) for v in range(n)
        ]
        assert g.edges == oracle.edges
        assert g.csr() == oracle.csr()
        assert g.neighbor_masks() == oracle.neighbor_masks() == tuple(
            sum(1 << w for w in oracle.neighbors(v)) for v in range(n)
        )
        assert g.max_degree == oracle.max_degree == n - 1
        assert repr(g) == repr(oracle) == f"Graph(n={n}, m={n * (n - 1) // 2})"

    @pytest.mark.parametrize("n", [0, -1])
    def test_clique_needs_a_vertex(self, n):
        with pytest.raises(ValueError) as raised:
            clique(n)
        assert str(raised.value) == _error(n, [])
        assert str(raised.value) == f"graph needs at least one vertex, got n={n}"

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
