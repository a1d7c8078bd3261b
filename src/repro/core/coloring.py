"""Distributed coloring of G + G^2 and TDMA simulation (Section 3).

Three pieces:

* :func:`learn_degree` — Algorithm Learn-degree: for O(Delta log n) slots
  every vertex transmits its ID with probability 1/Delta, otherwise
  listens; by a coupon-collector bound every vertex learns all neighbor
  IDs (and hence its degree) w.h.p. (Lemma 4).
* :func:`two_hop_coloring` — Algorithm Two-Hop-Coloring: O(log n)
  iterations, each sampling a candidate color in [2 Delta^2], gossiping
  color vectors for O(Delta log Delta) slots, and permanently fixing the
  candidate when no conflict within distance two is visible (Lemmas 5-6).
* :func:`simulate_local` — Theorem 3's TDMA schedule: with a proper
  coloring of G + G^2 in k colors, a block of k slots simulates one LOCAL
  round with zero collisions: color j transmits in block-slot j; listeners
  tune to their neighbors' (pairwise distinct!) color slots.

Everything runs in No-CD (hence also CD).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro.sim.actions import Idle, Listen, Send, SendListen
from repro.sim.feedback import is_message
from repro.sim.node import NodeCtx
from repro.util import ceil_log2

__all__ = [
    "ColoringParams",
    "learn_degree",
    "two_hop_coloring",
    "simulate_local",
    "coloring_preprocess",
]


@dataclass(frozen=True)
class ColoringParams:
    """Constants of the Section 3 preprocessing, shared network-wide.

    Attributes:
        max_degree: the paper's Delta (upper bound, >= 1).
        n: number of vertices.
        learn_factor: C in Learn-degree's C Delta log n slots.
        gossip_factor: C in Two-Hop-Coloring's C Delta log Delta slots.
        iterations: number of coloring iterations (paper: C log n).
    """

    max_degree: int
    n: int
    learn_factor: int = 6
    gossip_factor: int = 6
    iterations: Optional[int] = None

    @property
    def num_colors(self) -> int:
        return 2 * self.max_degree * self.max_degree

    @property
    def learn_slots(self) -> int:
        return self.learn_factor * self.max_degree * (ceil_log2(max(2, self.n)) + 1)

    @property
    def gossip_slots(self) -> int:
        log_d = ceil_log2(max(2, self.max_degree)) + 2
        return self.gossip_factor * self.max_degree * log_d

    @property
    def coloring_iterations(self) -> int:
        if self.iterations is not None:
            return self.iterations
        return 4 * (ceil_log2(max(2, self.n)) + 1) + 4


def _transmit_delta(params: ColoringParams) -> int:
    """The 1/Delta transmit probability's denominator, at least 2: at
    Delta = 1 (a single edge) probability 1 would have both endpoints
    send in every slot, so neither would ever hear the other."""
    return max(2, params.max_degree)


def learn_degree(ctx: NodeCtx, params: ColoringParams, my_id: int):
    """Learn the IDs of all neighbors w.h.p.; returns the set of IDs."""
    delta = _transmit_delta(params)
    heard = set()
    for _ in range(params.learn_slots):
        if ctx.rng.random() < 1.0 / delta:
            yield Send(("ld", my_id))
        else:
            feedback = yield Listen()
            if is_message(feedback) and feedback[0] == "ld":
                heard.add(feedback[1])
    return heard


def two_hop_coloring(
    ctx: NodeCtx,
    params: ColoringParams,
    my_id: int,
    neighbor_ids: set,
):
    """Compute this vertex's color in a proper coloring of G + G^2.

    Returns ``(color, neighbor_colors)`` where ``neighbor_colors`` maps
    neighbor ID -> final announced color.  The returned color is the fixed
    one w.h.p.; if the vertex never fixed (probability 1/poly(n)) the last
    candidate is returned, which downstream users treat as best-effort.
    """
    delta = _transmit_delta(params)
    color: Optional[int] = None
    fixed = False
    # L(v): most recently announced color per neighbor.
    my_vector: Dict[int, Optional[int]] = {w: None for w in neighbor_ids}
    # Copy of each neighbor's announced vector.
    their_vectors: Dict[int, Dict[int, Optional[int]]] = {}

    for _ in range(params.coloring_iterations):
        if not fixed:
            color = ctx.rng.randrange(params.num_colors)
        for _ in range(params.gossip_slots):
            if ctx.rng.random() < 1.0 / delta:
                yield Send(("thc", my_id, color, dict(my_vector)))
            else:
                feedback = yield Listen()
                if is_message(feedback) and feedback[0] == "thc":
                    _, w_id, w_color, w_vector = feedback
                    if w_id in my_vector:
                        my_vector[w_id] = w_color
                        their_vectors[w_id] = w_vector
        if fixed:
            continue
        # Step 4: reject the candidate on any visible conflict.
        reject = False
        for w_id in neighbor_ids:
            if my_vector[w_id] is None or my_vector[w_id] == color:
                reject = True
                break
            w_vector = their_vectors.get(w_id)
            if w_vector is None:
                reject = True
                break
            entries = list(w_vector.values())
            if any(entry is None for entry in entries):
                reject = True
                break
            if entries.count(color) >= 2:
                reject = True
                break
            # v itself appears in w's vector; another occurrence of color
            # among w's other neighbors is a distance-2 conflict.
            others = [c for u, c in w_vector.items() if u != my_id]
            if color in others:
                reject = True
                break
        if not reject:
            fixed = True
    return color, {w: c for w, c in my_vector.items()}


def simulate_local(
    ctx: NodeCtx,
    inner: Generator[Any, Any, Any],
    num_colors: int,
    my_color: int,
    neighbor_colors: Dict[int, int],
):
    """Drive a LOCAL-model protocol generator over the TDMA schedule.

    Each LOCAL round becomes a block of ``num_colors`` slots.  ``inner``
    yields the usual actions; Listen feedback is delivered as a tuple of
    messages (LOCAL semantics), collected collision-free from the
    neighbors' color slots.  Full-duplex SendListen is supported (the
    vertex transmits in its own slot and listens in the others).

    Returns ``inner``'s return value.
    """
    listen_slots = sorted(set(neighbor_colors.values()))
    feedback: Any = None
    first = True
    while True:
        try:
            action = next(inner) if first else inner.send(feedback)
        except StopIteration as stop:
            return stop.value
        first = False
        feedback = None
        if isinstance(action, Idle):
            yield Idle(action.duration * num_colors)
            continue
        sending = isinstance(action, (Send, SendListen))
        listening = isinstance(action, (Listen, SendListen))
        cursor = 0
        heard = []
        slots = sorted(
            set(listen_slots if listening else [])
            | ({my_color} if sending else set())
        )
        for slot in slots:
            if slot > cursor:
                yield Idle(slot - cursor)
            if sending and slot == my_color:
                yield Send(action.message)
            else:
                fb = yield Listen()
                if is_message(fb):
                    heard.append(fb)
            cursor = slot + 1
        if num_colors > cursor:
            yield Idle(num_colors - cursor)
        if listening:
            feedback = tuple(heard)


def coloring_preprocess(ctx: NodeCtx, params: ColoringParams):
    """Run Learn-degree then Two-Hop-Coloring with a random O(log n)-bit ID.

    Returns (my_color, neighbor_colors dict).
    """
    id_bits = 2 * (ceil_log2(max(2, params.n)) + 2)
    my_id = ctx.rng.getrandbits(id_bits)
    neighbor_ids = yield from learn_degree(ctx, params, my_id)
    color, neighbor_colors = yield from two_hop_coloring(
        ctx, params, my_id, neighbor_ids
    )
    return color, neighbor_colors
