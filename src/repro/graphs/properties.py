"""Graph measurements: BFS, distances, diameter, connectivity.

These supply the parameters the paper assumes devices know (n, Delta, D)
and the verification logic used by tests and experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.graphs.graph import Graph

__all__ = [
    "bfs_distances",
    "bfs_layers",
    "eccentricity",
    "diameter",
    "is_connected",
    "distance",
]


def bfs_distances(graph: Graph, source: int) -> List[int]:
    """Distances from ``source``; unreachable vertices get -1.

    Scans the graph's cached CSR adjacency — diameter computation runs a
    BFS per vertex, so the flat layout matters for workload labeling on
    larger graphs.
    """
    indptr, indices = graph.csr()
    dist = [-1] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        for w in indices[indptr[u]:indptr[u + 1]]:
            if dist[w] < 0:
                dist[w] = d
                queue.append(w)
    return dist


def bfs_layers(graph: Graph, source: int) -> Dict[int, List[int]]:
    """Vertices grouped by BFS distance from ``source``."""
    layers: Dict[int, List[int]] = {}
    for v, d in enumerate(bfs_distances(graph, source)):
        if d >= 0:
            layers.setdefault(d, []).append(v)
    return layers


def distance(graph: Graph, u: int, v: int) -> int:
    """Hop distance between u and v; -1 if disconnected."""
    return bfs_distances(graph, u)[v]


def eccentricity(graph: Graph, v: int) -> int:
    """Maximum distance from ``v``; raises if the graph is disconnected."""
    dist = bfs_distances(graph, v)
    if min(dist) < 0:
        raise ValueError("eccentricity undefined: graph is disconnected")
    return max(dist)


def diameter(graph: Graph, exact: bool = True, sample: Optional[int] = None) -> int:
    """The paper's D = max_{u,v} dist(u, v).

    Args:
        exact: the exact diameter.  A tree (n - 1 edges, and a BFS from
            vertex 0 reaches every vertex) takes two BFS passes: the
            vertex farthest from any start is an end of a longest path,
            so its eccentricity is the diameter.  Any other graph runs a
            BFS from every vertex (O(nm)).
        sample: if ``exact`` is False, number of BFS sources to sample
            (lower-bounds the diameter; good enough for workload labeling).
    """
    if graph.n == 1:
        return 0
    if exact:
        if len(graph.edges) == graph.n - 1:
            dist = bfs_distances(graph, 0)
            if min(dist) >= 0:
                return eccentricity(graph, dist.index(max(dist)))
        return max(eccentricity(graph, v) for v in range(graph.n))
    sources = range(min(graph.n, sample or 8))
    return max(eccentricity(graph, v) for v in sources)


def is_connected(graph: Graph) -> bool:
    return min(bfs_distances(graph, 0)) >= 0
