"""Graph substrate: immutable graphs, generators, and measurements."""

from repro.graphs.graph import Graph
from repro.graphs.properties import (
    bfs_distances,
    diameter,
    distance,
    eccentricity,
    is_connected,
)
from repro.graphs.topologies import (
    clique,
    cycle_graph,
    grid_graph,
    k2k_gadget,
    path_graph,
    random_gnp,
    random_tree,
    star_graph,
)

__all__ = [
    "Graph",
    "bfs_distances",
    "diameter",
    "distance",
    "eccentricity",
    "is_connected",
    "clique",
    "cycle_graph",
    "grid_graph",
    "k2k_gadget",
    "path_graph",
    "random_gnp",
    "random_tree",
    "star_graph",
]
