"""Topology generators for the paper's workloads.

Covers every graph family the paper's proofs and algorithms reference:
paths (Theorem 1, Section 8), cliques / single-hop networks (Section 1.1),
the K_{2,k} lower-bound gadget (Theorem 2), plus the standard families used
to exercise multi-hop broadcast (grids, cycles, random graphs, trees).
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Tuple

from repro.graphs.graph import Graph

__all__ = [
    "path_graph",
    "cycle_graph",
    "clique",
    "star_graph",
    "k2k_gadget",
    "grid_graph",
    "random_gnp",
    "random_tree",
]


def path_graph(n: int) -> Graph:
    """Path v_0 - v_1 - ... - v_{n-1} (paper's hard instance for Theorem 1)."""
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices; diameter floor(n/2)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def clique(n: int) -> Graph:
    """Single-hop network: every pair of devices is adjacent."""
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return Graph(n, ((0, i) for i in range(1, n)))


def k2k_gadget(k: int) -> Tuple[Graph, int, int]:
    """The K_{2,k} gadget of Theorem 2.

    Vertices: s=0, t=1, middle vertices 2..k+1; s and t are each adjacent to
    every middle vertex (and not to each other).

    Returns:
        (graph, s, t) with s the broadcast source.
    """
    if k < 1:
        raise ValueError("K_{2,k} needs k >= 1")
    edges = ((side, i) for side in (0, 1) for i in range(2, k + 2))
    return Graph(k + 2, edges), 0, 1


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols 4-neighbor grid; max degree 4, diameter rows+cols-2."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows, cols >= 1")

    def edges() -> Iterator[Tuple[int, int]]:
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    yield v, v + 1
                if r + 1 < rows:
                    yield v, v + cols

    return Graph(rows * cols, edges())


def random_tree(n: int, rng: Optional[random.Random] = None) -> Graph:
    """Uniform random recursive tree (connected, n-1 edges)."""
    rng = rng or random.Random(0)
    return Graph(n, ((rng.randrange(i), i) for i in range(1, n)))


def random_gnp(
    n: int, p: float, rng: Optional[random.Random] = None, ensure_connected: bool = True
) -> Graph:
    """Erdos-Renyi G(n, p); optionally patched to be connected via a
    random recursive tree backbone (broadcast requires connectivity).

    The edges stream into :class:`Graph` as they are drawn: the pair
    coins in order, then the backbone, the same draws in the same order
    as a list built up front."""
    rng = rng or random.Random(0)

    def edges() -> Iterator[Tuple[int, int]]:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    yield i, j
        if ensure_connected:
            for i in range(1, n):
                yield rng.randrange(i), i

    return Graph(n, edges())
