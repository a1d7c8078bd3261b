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
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.schemes import SRScheme
from repro.core.sr_comm import Role
from repro.sim.node import NodeCtx

__all__ = ["down_cast", "all_cast", "up_cast", "cast_sequence_slots", "identity"]


def identity(message: Any) -> Any:
    return message


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
    frames = max_layers - 1
    recv_frame = layer - 1  # I am in R = layer-(i+1) when i = layer-1
    send_frame = layer  # I am in S = layer-i when i = layer
    cursor = 0
    for i in (recv_frame, send_frame):
        if not 0 <= i < frames:
            continue
        if i > cursor:
            yield from scheme.idle_frames(i - cursor)
        if i == recv_frame and value is None:
            received = yield from scheme.communicate(ctx, Role.RECEIVER, accept=accept)
            if received is not None:
                value = transform(received)
        elif i == send_frame and value is not None:
            yield from scheme.communicate(ctx, Role.SENDER, value)
        else:
            yield from scheme.communicate(ctx, Role.IDLE)
        cursor = i + 1
    if frames > cursor:
        yield from scheme.idle_frames(frames - cursor)
    return value


def up_cast(
    ctx: NodeCtx,
    scheme: SRScheme,
    layer: int,
    value: Optional[Any],
    max_layers: int,
    transform: Callable[[Any], Any] = identity,
    accept=None,
):
    """One Up-cast sweep (frames i = max_layers-1 down to 1); returns the
    (possibly updated) value.  A vertex at ``layer`` may receive in frame
    i = layer+1 and send in frame i = layer; descending order makes those
    consecutive, so a value washes up toward layer 0."""
    frames = max_layers - 1  # frame indices i = max_layers-1 .. 1
    recv_frame = layer + 1  # I am in R = layer-(i-1) when i = layer+1
    send_frame = layer  # I am in S = layer-i when i = layer
    cursor = 0  # position in sweep order: position p handles i = max_layers-1-p
    for i in (recv_frame, send_frame):
        if not 1 <= i <= max_layers - 1:
            continue
        position = max_layers - 1 - i
        if position > cursor:
            yield from scheme.idle_frames(position - cursor)
        if i == recv_frame and value is None:
            received = yield from scheme.communicate(ctx, Role.RECEIVER, accept=accept)
            if received is not None:
                value = transform(received)
        elif i == send_frame and value is not None:
            yield from scheme.communicate(ctx, Role.SENDER, value)
        else:
            yield from scheme.communicate(ctx, Role.IDLE)
        cursor = position + 1
    if frames > cursor:
        yield from scheme.idle_frames(frames - cursor)
    return value


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
