"""Good labelings (Section 5): data model and validation.

A labeling L : V -> {0..n-1} is *good* when every vertex v with L(v) > 0
has a neighbor u with L(u) = L(v) - 1.  A good labeling encodes a
clustering: layer-0 vertices are cluster roots and every other vertex can
pick a parent one layer down.

These helpers run *outside* protocols (tests, experiments, verification);
the in-protocol state is just each node's integer label.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.graphs.graph import Graph

__all__ = [
    "is_good_labeling",
    "layer_zero",
]


def is_good_labeling(graph: Graph, labels: Sequence[int]) -> bool:
    """Check the Section 5 definition."""
    if len(labels) != graph.n:
        return False
    for v in range(graph.n):
        lv = labels[v]
        if lv < 0:
            return False
        if lv > 0 and not any(labels[u] == lv - 1 for u in graph.neighbors(v)):
            return False
    return True


def layer_zero(labels: Sequence[int]) -> List[int]:
    return [v for v, value in enumerate(labels) if value == 0]
