"""Down-cast / All-cast / Up-cast (Lemma 10).

The three layered communication sweeps over a good labeling L:

* Down-cast: for i = 0 .. max_layers-2, SR-communication with
  S = layer-i holders, R = layer-(i+1) non-holders.
* All-cast: one SR-communication with S = all holders, R = all others.
* Up-cast: for i = max_layers-1 .. 1, S = layer-i holders,
  R = layer-(i-1) non-holders.

"Holder" means the vertex's ``value`` is not None.  On reception the
vertex adopts ``transform(received)`` — identity for payload broadcast,
``m -> m + 1`` for the labeling computation of Section 5.

Participation scheduling: a vertex at layer l can only act in the frame
where layer l receives and the frame where layer l sends, which are
consecutive in sweep order; it sleeps through everything else in O(1)
yields.  That is what gives Lemma 10 its per-vertex energy bound.
:func:`sweep` is that schedule, written once: the cluster casts
(Lemma 17), the deterministic tree grids (Lemma 28) and the colored
tree-cluster grids (Section 7.1) run their layered sweeps through it too.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.core.schemes import SRScheme
from repro.core.sr_comm import Role
from repro.sim.actions import Idle
from repro.sim.node import NodeCtx

__all__ = [
    "sweep",
    "down_cast",
    "all_cast",
    "up_cast",
    "cast_sequence_slots",
    "identity",
]


def identity(message: Any) -> Any:
    return message


def sweep(
    positions: int,
    unit: int,
    recv_at: int,
    send_at: int,
    value: Optional[Any],
    receive: Callable[[int], Generator],
    send: Callable[[int, Any], Generator],
    transform: Callable[[Any], Any],
):
    """Lemma 10's schedule: one vertex's part in a sweep of ``positions``
    frames of ``unit`` slots each.  Generator; returns the (possibly
    updated) value.

    The vertex acts in at most two positions.  At ``recv_at``, if it
    holds nothing, it runs ``receive(recv_at)`` and adopts
    ``transform(received)`` when that returns a message; at
    ``send_at``, if it holds something (possibly what it received one
    position earlier, which is how a value washes along the layers), it
    runs ``send(send_at, value)``.  A position outside ``[0,
    positions)`` is skipped.  The vertex sleeps through every other slot,
    a position where it has nothing to do included, in one ``Idle`` per
    stretch: O(1) yields however long the sweep.
    """
    cursor = 0  # first position not yet covered
    for at in (recv_at, send_at):
        if not cursor <= at < positions:
            continue
        if value is None:
            if at != recv_at:
                continue
            step = receive(at)
        elif at == send_at:
            step = send(at, value)
        else:
            continue
        if at > cursor:
            yield Idle((at - cursor) * unit)
        got = yield from step
        if value is None and got is not None:
            value = transform(got)
        cursor = at + 1
    if positions > cursor:
        yield Idle((positions - cursor) * unit)
    return value


def down_cast(
    ctx: NodeCtx,
    scheme: SRScheme,
    layer: int,
    value: Optional[Any],
    max_layers: int,
    transform: Callable[[Any], Any] = identity,
    accept=None,
):
    """One Down-cast sweep; returns the (possibly updated) value.

    Frames run i = 0..max_layers-2 in time order.  A vertex at ``layer``
    may receive in frame layer-1 (if it holds nothing) and send in frame
    ``layer`` (if it holds something — possibly something it just received
    one frame earlier, which is how a value washes down the layers).
    """
    return sweep(
        max_layers - 1, scheme.frame_length, layer - 1, layer, value,
        lambda at: scheme.communicate(ctx, Role.RECEIVER, accept=accept),
        lambda at, held: scheme.communicate(ctx, Role.SENDER, held),
        transform,
    )


def up_cast(
    ctx: NodeCtx,
    scheme: SRScheme,
    layer: int,
    value: Optional[Any],
    max_layers: int,
    transform: Callable[[Any], Any] = identity,
    accept=None,
):
    """One Up-cast sweep (frames i = max_layers-1 down to 1, so position
    p runs frame i = max_layers-1-p); returns the (possibly updated)
    value.  A vertex at ``layer`` may receive in frame i = layer+1 and
    send in frame i = layer; descending order makes those consecutive,
    so a value washes up toward layer 0."""
    return sweep(
        max_layers - 1, scheme.frame_length,
        max_layers - 2 - layer, max_layers - 1 - layer, value,
        lambda at: scheme.communicate(ctx, Role.RECEIVER, accept=accept),
        lambda at, held: scheme.communicate(ctx, Role.SENDER, held),
        transform,
    )


def all_cast(
    ctx: NodeCtx,
    scheme: SRScheme,
    value: Optional[Any],
    transform: Callable[[Any], Any] = identity,
    accept=None,
):
    """One All-cast frame: holders send, everyone else tries to receive."""
    if value is not None:
        yield from scheme.communicate(ctx, Role.SENDER, value)
        return value
    received = yield from scheme.communicate(ctx, Role.RECEIVER, accept=accept)
    if received is not None:
        return transform(received)
    return None


def cast_sequence_slots(scheme: SRScheme, max_layers: int, repeats: int) -> int:
    """Total slots of Lemma 10's schedule: one Up-cast, ``repeats`` rounds
    of (Down, All, Up), and one final Down-cast."""
    sweep = (max_layers - 1) * scheme.frame_length
    allc = scheme.frame_length
    return sweep + repeats * (2 * sweep + allc) + sweep
