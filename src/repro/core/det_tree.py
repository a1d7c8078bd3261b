"""Deterministic cluster-tree transmissions (Appendix A.3, Lemma 28).

Clusters are rooted trees; every vertex knows its parent's ID.  Time is
split into N intervals, one per ID:

* Downward: in interval j only the vertex with ID j+1 may transmit; its
  children (who know the parent ID) listen exactly there.  One slot per
  interval, zero failure.
* Upward: interval j is reserved for SR-communication between the vertex
  with ID j+1 and its children; children of the same parent contend, so
  the interval runs the deterministic Lemma 24 payload primitive — the
  parent learns the minimum-ID child's message.  O(N) slots per interval
  (the paper's min{M, N} factor with M >= N), O(log N) energy per
  participant.

``det_down_cast`` / ``det_up_cast`` sweep these grids over the layers of a
good labeling through :func:`repro.core.casts.sweep`, Lemma 10's
two-positions-per-vertex schedule, and ``DetCDScheme`` adapts Lemma 24
to the SRScheme interface so the plain Lemma 10 casts work
deterministically for the final broadcast.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.casts import identity, sweep
from repro.core.sr_comm import Role, det_frame_length, sr_det_cd_payload
from repro.sim.actions import Listen, Send
from repro.sim.feedback import is_message
from repro.sim.node import NodeCtx
from repro.sim.plan import Steps, timeline

__all__ = [
    "det_downward",
    "det_upward",
    "det_down_cast",
    "det_up_cast",
    "DetCDScheme",
    "downward_slots",
    "upward_slots",
]

_LISTEN = Listen()


def downward_slots(id_space: int) -> int:
    return id_space


def upward_slots(id_space: int) -> int:
    return id_space * (det_frame_length(id_space) + id_space)


def det_downward(
    ctx: NodeCtx,
    parent_uid: Optional[int],
    value: Optional[Any],
    listening: bool,
    id_space: int,
):
    """One Downward grid: parent -> children, zero failure.

    A vertex holding ``value`` transmits at its own interval; a
    ``listening`` vertex with a parent listens at the parent's interval.
    The grid is a fixed schedule, so it goes out as one ``Steps`` plan
    (a lone ``Idle`` for a vertex that does neither).  Returns the
    received message or None.
    """
    send_slot = (ctx.uid - 1) if value is not None else None
    listen_slot = (parent_uid - 1) if (listening and parent_uid is not None) else None
    if listen_slot is not None and listen_slot == send_slot:
        listen_slot = None  # cannot happen for distinct IDs; defensive
    events = []
    if send_slot is not None:
        events.append((send_slot, Send(("dt", value))))
    if listen_slot is not None:
        events.append((listen_slot, _LISTEN))
        events.sort()
    acts = timeline(events, id_space)
    if listen_slot is None:
        yield acts[0] if len(acts) == 1 else Steps(acts)
        return None
    (feedback,) = yield Steps(acts)
    if is_message(feedback) and feedback[0] == "dt":
        return feedback[1]
    return None


def det_upward(
    ctx: NodeCtx,
    parent_uid: Optional[int],
    value: Optional[Any],
    listening: bool,
    id_space: int,
):
    """One Upward grid: children -> parent via Lemma 24 per interval.

    A vertex holding ``value`` acts as deterministic SR sender in its
    parent's interval; a ``listening`` vertex receives in its own interval
    (one :func:`~repro.core.casts.sweep` over the ``id_space`` intervals).
    A vertex does one or the other: a call that both holds a value and
    listens raises ``ValueError``.  Returns (child_uid, message) for a
    listening vertex that heard a child, else None.
    """
    if value is not None and listening:
        raise ValueError("det_upward: a vertex either sends or listens")
    got = yield from sweep(
        id_space, det_frame_length(id_space) + id_space,
        ctx.uid - 1 if listening else -1,
        parent_uid - 1 if (value is not None and parent_uid is not None) else -1,
        value,
        lambda at: sr_det_cd_payload(ctx, Role.RECEIVER, None, None, id_space),
        lambda at, held: sr_det_cd_payload(ctx, Role.SENDER, ctx.uid, held, id_space),
        identity,
    )
    return got if listening else None


def det_down_cast(
    ctx: NodeCtx,
    layer: int,
    parent_uid,
    value,
    max_layers: int,
    id_space: int,
    transform: Callable[[Any], Any],
):
    """Layered Downward sweep along tree edges (deterministic)."""
    return sweep(
        max_layers - 1, downward_slots(id_space), layer - 1, layer, value,
        lambda at: det_downward(ctx, parent_uid, None, True, id_space),
        lambda at, held: det_downward(ctx, parent_uid, held, False, id_space),
        transform,
    )


def det_up_cast(
    ctx: NodeCtx,
    layer: int,
    parent_uid,
    value,
    max_layers: int,
    id_space: int,
    transform: Callable[[Any], Any],
):
    """Layered Upward sweep along tree edges (deterministic).  The
    transform receives (child_uid, message) pairs."""
    return sweep(
        max_layers - 1, upward_slots(id_space),
        max_layers - 2 - layer, max_layers - 1 - layer, value,
        lambda at: det_upward(ctx, parent_uid, None, True, id_space),
        lambda at, held: det_upward(ctx, parent_uid, held, False, id_space),
        transform,
    )


class DetCDScheme:
    """Duck-typed :class:`~repro.core.schemes.SRScheme` replacement that
    runs Lemma 24's deterministic SR-communication, so the plain Lemma 10
    casts (and broadcast_on_labeling) work in deterministic CD.

    Receivers obtain (sender_uid, message); ``communicate`` unwraps to the
    message for cast compatibility.
    """

    model_name = "det-CD"

    def __init__(self, id_space: int) -> None:
        self.id_space = id_space

    @property
    def frame_length(self) -> int:
        return det_frame_length(self.id_space) + self.id_space

    def communicate(self, ctx: NodeCtx, role: Role, message: Any = None, accept=None):
        def run():
            got = yield from sr_det_cd_payload(
                ctx, role, ctx.uid if role is Role.SENDER else None,
                message, self.id_space,
            )
            if got is None:
                return None
            payload = got[1]
            if accept is not None and not accept(payload):
                return None
            return payload

        return run()
