"""Lightweight undirected graph used by the simulator.

Vertices are integers ``0..n-1``.  The structure is immutable after
construction; adjacency lists are sorted tuples so channel resolution and
LOCAL-model message ordering are deterministic.

Construction makes one pass over the edges, appending each endpoint to
its partner's list, then sorts each list and collapses repeated entries
where a list has any: O(m) appends and one O(d log d) sort per vertex of
degree d.  It keeps no edge set and no global edge order, so its cost
and memory are the adjacency itself.

Four derived representations are computed lazily and cached, because the
engine resolves receptions against the same graph for every slot of every
trial of a sweep:

* the sorted edge tuple :attr:`Graph.edges`, read from the adjacency;
* a CSR (compressed sparse row) adjacency — one flat ``array`` of neighbor
  indices plus an offset table, cache-friendlier than tuple-of-tuples for
  whole-graph scans (BFS, connectivity);
* per-vertex neighbor bitmasks — arbitrary-precision ints with bit ``w``
  set iff ``w`` is a neighbor, so "which of my neighbors transmitted" is a
  single ``mask & transmit_mask`` instead of a per-neighbor loop;
* (when numpy is installed) the same masks packed into an ``(n, ceil(n/64))``
  ``uint64`` table, so a whole slot's contention counts resolve as one
  vectorized AND + popcount sweep (the ``resolution="numpy"`` backend).
"""

from __future__ import annotations

from array import array
from typing import Iterable, Tuple

__all__ = ["Graph"]


class Graph:
    """An immutable simple undirected graph on vertices ``0..n-1``."""

    __slots__ = ("_n", "_adj", "_edges", "_csr", "_masks", "_mask_array")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]) -> None:
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        adj = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            adj[u].append(v)
            adj[v].append(u)
        for neighbors in adj:
            neighbors.sort()
        self._n = n
        # A repeated edge, in either orientation, repeats an entry in
        # both endpoints' sorted lists; dict.fromkeys collapses each run
        # of repeats and keeps the order.
        self._adj = tuple(
            tuple(a) if len(a) == len(set(a)) else tuple(dict.fromkeys(a))
            for a in adj
        )
        self._edges = None
        self._csr = None
        self._masks = None
        self._mask_array = None

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Sorted tuple of edges (u, v) with u < v; built on first read
        from the sorted adjacency, which lists them in that order."""
        if self._edges is None:
            self._edges = tuple(
                (u, v)
                for u, neighbors in enumerate(self._adj)
                for v in neighbors
                if v > u
            )
        return self._edges

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbors of ``v``."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @property
    def max_degree(self) -> int:
        """The paper's Delta."""
        return max(len(a) for a in self._adj)

    def csr(self) -> Tuple[array, array]:
        """CSR adjacency ``(indptr, indices)``; computed once and cached.

        ``indices[indptr[v]:indptr[v + 1]]`` are the sorted neighbors of
        ``v``.  Both arrays are typed ``array('l')`` for a compact,
        cache-friendly layout.
        """
        if self._csr is None:
            indptr = array("l", [0])
            indices = array("l")
            total = 0
            for neighbors in self._adj:
                total += len(neighbors)
                indptr.append(total)
                indices.extend(neighbors)
            self._csr = (indptr, indices)
        return self._csr

    def neighbor_mask(self, v: int) -> int:
        """Bitmask of ``v``'s neighborhood: bit ``w`` set iff ``{v,w}`` is
        an edge.  Never includes ``v`` itself (no self-loops)."""
        return self.neighbor_masks()[v]

    def neighbor_masks(self) -> Tuple[int, ...]:
        """All neighbor bitmasks, indexed by vertex; computed once and
        cached so every simulation over this graph shares them."""
        if self._masks is None:
            masks = []
            for neighbors in self._adj:
                mask = 0
                for w in neighbors:
                    mask |= 1 << w
                masks.append(mask)
            self._masks = tuple(masks)
        return self._masks

    def neighbor_mask_array(self):
        """The neighbor bitmasks packed into an ``(n, ceil(n/64))``
        ``uint64`` numpy array — row ``v``, word ``w`` holds bits
        ``64w .. 64w+63`` of :meth:`neighbor_mask`.  Computed once and
        cached; raises ``ImportError`` when numpy is not installed (the
        numpy resolution backend is optional)."""
        if self._mask_array is None:
            import numpy as np

            words = (self._n + 63) >> 6
            flat = []
            mask_word = (1 << 64) - 1
            for mask in self.neighbor_masks():
                for _ in range(words):
                    flat.append(mask & mask_word)
                    mask >>= 64
            self._mask_array = np.array(
                flat, dtype=np.uint64
            ).reshape(self._n, words)
        return self._mask_array

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u] if len(self._adj[u]) < 8 else self._bsearch(u, v)

    def _bsearch(self, u: int, v: int) -> bool:
        import bisect

        a = self._adj[u]
        i = bisect.bisect_left(a, v)
        return i < len(a) and a[i] == v

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        m = sum(len(neighbors) for neighbors in self._adj) // 2
        return f"Graph(n={self._n}, m={m})"
