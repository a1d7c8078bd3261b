"""Colored tree-cluster transmissions (Section 7.1, Lemma 19).

Section 7 upgrades the cluster machinery with c random (n^xi * Delta)-
colorings.  A vertex's identifier is its color tuple
ID(v) = (Color_1(v), ..., Color_c(v)); every child knows its designated
parent's tuple.  ``Ind(u, v)`` is the smallest coloring index j such that
no *other* neighbor of u shares the parent's color Color_j(v); it exists
w.h.p. when c = O(1/xi), and it buys:

* Downward transmission with zero failure probability: in the slot grid
  (j, k), a vertex transmits at its own color slots and each child listens
  at (Ind, parent color) — by definition of Ind, the parent is the only
  audible transmitter there.
* Upward transmission where only parent-child pairs contend (footnote 6):
  the (j, k) block runs Lemma 8's SR-communication with the probe and ack
  optimizations, so each block costs the sender O(log log Delta) energy in
  expectation.

Layered cast sweeps (tree_down_cast / tree_up_cast) then run Lemma 10's
participation scheduling, :func:`repro.core.casts.sweep`, with one (j, k)
grid per layer position.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.core.casts import identity, sweep
from repro.core.sr_comm import CDParams, Role, sr_cd
from repro.sim.actions import Listen, Send
from repro.sim.feedback import is_message
from repro.sim.node import NodeCtx
from repro.sim.plan import Steps, timeline

__all__ = [
    "TreeParams",
    "sample_colors",
    "learn_ind",
    "tree_downward",
    "tree_upward",
    "tree_down_cast",
    "tree_up_cast",
]

_LISTEN = Listen()


@dataclass(frozen=True)
class TreeParams:
    """Shared constants of the Section 7 machinery.

    Attributes:
        num_colorings: the paper's c = O(1/xi).
        num_colors: colors per coloring, the paper's n^xi * Delta.
        sr: Lemma 8 parameters for the upward blocks (probe+ack on).
    """

    num_colorings: int
    num_colors: int
    sr: CDParams

    @classmethod
    def for_graph(
        cls,
        n: int,
        max_degree: int,
        xi: float = 0.5,
        failure: float = 0.05,
        num_colorings: Optional[int] = None,
    ) -> "TreeParams":
        if not 0 < xi <= 1:
            raise ValueError(f"xi must be in (0,1], got {xi}")
        c = num_colorings if num_colorings is not None else max(2, round(2.0 / xi))
        colors = max(2, int(round(n**xi * max_degree)))
        sr = CDParams.for_graph(max_degree, failure, probe=True, ack=True)
        return cls(num_colorings=c, num_colors=colors, sr=sr)

    @property
    def downward_slots(self) -> int:
        return self.num_colorings * self.num_colors

    @property
    def upward_slots(self) -> int:
        return self.num_colorings * self.num_colors * self.sr.frame_length


def sample_colors(rng: random.Random, params: TreeParams) -> Tuple[int, ...]:
    """Draw this vertex's color tuple (its Section 7 identifier)."""
    return tuple(
        rng.randrange(params.num_colors) for _ in range(params.num_colorings)
    )


def learn_ind(
    ctx: NodeCtx,
    params: TreeParams,
    my_colors: Sequence[int],
    parent_colors: Optional[Sequence[int]],
):
    """Lemma 19: learn Ind(u, parent(u)) in O(c * num_colors) slots.

    Every vertex transmits at its own color slot of every coloring; a
    vertex with a parent listens at the parent's color slot (skipped when
    it coincides with its own, which makes that coloring unusable).  The
    grid is a fixed schedule, so it goes out as one ``Steps`` plan.
    Returns the smallest usable coloring index, or None.
    """
    colors = params.num_colors
    events = []
    listened = []  # colorings with a listen slot, in slot order
    for j in range(params.num_colorings):
        base = j * colors
        own_k = my_colors[j]
        own = (base + own_k, Send(("ind", j, own_k)))
        if parent_colors is None or parent_colors[j] == own_k:
            events.append(own)
        else:
            events += sorted((own, (base + parent_colors[j], _LISTEN)))
            listened.append(j)
    heard = yield Steps(timeline(events, params.num_colorings * colors))
    for j, feedback in zip(listened, heard):
        if is_message(feedback):
            return j
    return None


def tree_downward(
    ctx: NodeCtx,
    params: TreeParams,
    my_colors: Sequence[int],
    parent_colors: Optional[Sequence[int]],
    ind: Optional[int],
    value: Optional[Any],
    listening: bool,
):
    """One Downward-transmission grid: failure-free parent -> children.

    A vertex holding ``value`` transmits it at its own color slot in every
    coloring; a ``listening`` vertex tunes to (ind, parent color).  The
    grid is a fixed schedule, so it goes out as one ``Steps`` plan (a
    lone ``Idle`` for a vertex that does neither).  Returns the received
    message or None.
    """
    colors = params.num_colors
    events = []
    if value is not None:
        send = Send(value)
        events = [(j * colors + k, send) for j, k in enumerate(my_colors)]
    listen_at = None
    if (
        listening
        and ind is not None
        and parent_colors is not None
        and (value is None or parent_colors[ind] != my_colors[ind])
    ):
        listen_at = ind * colors + parent_colors[ind]
        events.append((listen_at, _LISTEN))
        events.sort()
    acts = timeline(events, params.downward_slots)
    if listen_at is None:
        yield acts[0] if len(acts) == 1 else Steps(acts)
        return None
    (feedback,) = yield Steps(acts)
    return feedback if is_message(feedback) else None


def tree_upward(
    ctx: NodeCtx,
    params: TreeParams,
    my_colors: Sequence[int],
    parent_colors: Optional[Sequence[int]],
    ind: Optional[int],
    value: Optional[Any],
    listening: bool,
):
    """One Upward-transmission grid: children -> parent via Lemma 8 blocks.

    A vertex holding ``value`` acts as SR sender in the single block
    (ind, parent color); a ``listening`` vertex acts as SR receiver in the
    c blocks (j, own color) until one delivers.  Each coloring is one
    :func:`~repro.core.casts.sweep` over its ``num_colors`` blocks.
    Footnote 6 guarantees only parent-child pairs meet inside a block;
    the probe and ack options keep bystander energy O(1) per block.  A
    vertex does one or the other: a call that both holds a value and
    listens raises ``ValueError``.  Returns the received message or None.
    """
    if value is not None and listening:
        raise ValueError("tree_upward: a vertex either sends or listens")
    sr = params.sr

    def receive(at):
        return sr_cd(ctx, Role.RECEIVER, None, sr)

    def send(at, message):
        return sr_cd(ctx, Role.SENDER, message, sr)

    send_j = ind if (value is not None and parent_colors is not None) else None
    held = value
    for j in range(params.num_colorings):
        held = yield from sweep(
            params.num_colors, sr.frame_length,
            my_colors[j] if listening else -1,
            parent_colors[j] if j == send_j else -1,
            held, receive, send, identity,
        )
    return held if listening else None


def tree_down_cast(
    ctx: NodeCtx,
    params: TreeParams,
    layer: int,
    value: Optional[Any],
    max_layers: int,
    my_colors,
    parent_colors,
    ind,
    transform: Callable[[Any], Any],
):
    """Layered Downward sweep: frame i moves values layer i -> i+1 along
    tree edges; every vertex is active in at most two positions."""
    return sweep(
        max_layers - 1, params.downward_slots, layer - 1, layer, value,
        lambda at: tree_downward(
            ctx, params, my_colors, parent_colors, ind, None, True
        ),
        lambda at, held: tree_downward(
            ctx, params, my_colors, parent_colors, ind, held, False
        ),
        transform,
    )


def tree_up_cast(
    ctx: NodeCtx,
    params: TreeParams,
    layer: int,
    value: Optional[Any],
    max_layers: int,
    my_colors,
    parent_colors,
    ind,
    transform: Callable[[Any], Any],
):
    """Layered Upward sweep: frame i moves values layer i -> i-1 along
    tree edges (deepest layer first)."""
    return sweep(
        max_layers - 1, params.upward_slots,
        max_layers - 2 - layer, max_layers - 1 - layer, value,
        lambda at: tree_upward(
            ctx, params, my_colors, parent_colors, ind, None, True
        ),
        lambda at, held: tree_upward(
            ctx, params, my_colors, parent_colors, ind, held, False
        ),
        transform,
    )
