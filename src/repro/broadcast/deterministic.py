"""Deterministic Broadcast algorithms (Appendix A).

* :func:`det_local_broadcast_protocol` — Theorem 25 (LOCAL):
  O(log n) iterations of [compute a (3, O(log N))-ruling set of the
  cluster graph G_L, then re-label with the ruling set as survivors].
  The ruling set is the parallel bottom-up prefix merge of [3]: process
  ID-prefix classes from leaves to root; at each level keep the left
  class's set and drop right-class members within G_L-distance 2,
  detected with two mark-flooding G_L rounds (each simulated by
  Down-cast / All-cast / Up-cast with prefix-tagged marks).
* :func:`det_cd_broadcast_protocol` — Theorem 27 (CD):
  clusters are rooted trees driven by the deterministic interval
  transmissions of Lemma 28; the (2, log N)-ruling set of Lemma 26 runs
  its prefix recursion *sequentially* (CD has collisions, unlike LOCAL);
  non-ruling clusters then merge toward ruling clusters for O(log N)
  rounds; the final broadcast uses Lemma 10 casts over Lemma 24's
  deterministic SR-communication.

Both protocols use no randomness at all — outputs depend only on the
graph and the ID assignment.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.core.casts import all_cast, down_cast, up_cast
from repro.core.clustering import broadcast_on_labeling, refine_labeling
from repro.core.det_tree import (
    DetCDScheme,
    det_down_cast,
    det_up_cast,
    downward_slots,
    upward_slots,
)
from repro.core.schemes import SRScheme
from repro.core.sr_comm import Role, sr_det_cd_payload, det_frame_length
from repro.sim.actions import Idle
from repro.sim.node import NodeCtx
from repro.util import ceil_log2

__all__ = ["det_local_broadcast_protocol", "det_cd_broadcast_protocol"]


# ---------------------------------------------------------------------------
# Theorem 25: deterministic LOCAL
# ---------------------------------------------------------------------------


def _accept_mark(lvl: int, my_prefix: int, tag: int):
    def accept(message) -> bool:
        return (
            isinstance(message, tuple)
            and len(message) == 4
            and message[0] == "mark"
            and message[1] == (lvl, tag)
            and message[2] == my_prefix
        )

    return accept


def _gl_mark_round(
    ctx: NodeCtx,
    scheme: SRScheme,
    label: int,
    max_layers: int,
    sending: bool,
    lvl: int,
    my_prefix: int,
    tag: int,
):
    """One G_L mark-flooding round: marked clusters shout, every cluster
    whose boundary hears a same-prefix mark reports it to its root.
    Returns True iff this vertex's root-ward sweep saw the mark (at the
    root this means: some cluster within G_L-distance 1 was marked)."""
    mark = ("mark", (lvl, tag), my_prefix, True)
    accept = _accept_mark(lvl, my_prefix, tag)
    held = mark if (sending and label == 0) else None
    # Spread the mark through marked clusters (roots know `sending`).
    held = yield from down_cast(
        ctx, scheme, label, held, max_layers, accept=accept
    )
    # Exchange across cluster boundaries.
    held = yield from all_cast(ctx, scheme, held, accept=accept)
    # Report back to roots.
    held = yield from up_cast(ctx, scheme, label, held, max_layers, accept=accept)
    return held is not None


def det_local_broadcast_protocol(
    iterations: Optional[int] = None,
    gl_diameter_bound: int = 1,
):
    """Factory for the Theorem 25 deterministic LOCAL broadcast."""

    def protocol(ctx: NodeCtx):
        n = ctx.n
        id_space = ctx.id_space or n
        bits = max(1, ceil_log2(max(2, id_space)))
        scheme = SRScheme("LOCAL", ctx.max_degree)
        iters = iterations if iterations is not None else ceil_log2(max(2, n)) + 2
        label = 0

        for _ in range(iters):
            # Every vertex learns its cluster's root ID (cid) by a plain
            # Down-cast of root IDs along parent chains.
            cid = yield from down_cast(
                ctx, scheme, label,
                ctx.uid if label == 0 else None, n,
            )
            # A faulted channel (churn, jam, burst loss) can leave a
            # member without its root's ID.  Its prefix is then None, so
            # it accepts no mark (marks carry roots' prefixes), but it
            # still runs every cast and the fixed frame holds.
            id0 = None if cid is None else cid - 1

            # Parallel prefix-merge ruling set over G_L.
            in_ruling = label == 0
            for lvl in range(bits - 1, -1, -1):
                if id0 is None:
                    my_prefix = my_bit = None
                else:
                    my_prefix = id0 >> (bits - lvl)
                    my_bit = (id0 >> (bits - lvl - 1)) & 1
                marked = in_ruling and my_bit == 0
                # Members learn `marked` from the root implicitly: only
                # roots seed marks, members just relay (down_cast starts
                # the value at layer 0).
                near1 = yield from _gl_mark_round(
                    ctx, scheme, label, n, marked, lvl, my_prefix, 1
                )
                # Distance-2 relay: clusters marked or at distance 1 shout.
                relay = marked or (near1 and label == 0)
                near2 = yield from _gl_mark_round(
                    ctx, scheme, label, n, relay, lvl, my_prefix, 2
                )
                if (
                    in_ruling
                    and my_bit == 1
                    and label == 0
                    and (near1 or near2)
                ):
                    in_ruling = False

            # Re-label with ruling-set members as survivors.
            label = yield from refine_labeling(
                ctx, scheme, label,
                survive_p=0.0, spread_s=2 * bits + 2, max_layers=n,
                survive=in_ruling if label == 0 else False,
            )

        payload = ctx.inputs.get("payload") if ctx.inputs.get("source") else None
        payload = yield from broadcast_on_labeling(
            ctx, scheme, label, payload, n, gl_diameter_bound
        )
        return payload

    return protocol


# ---------------------------------------------------------------------------
# Theorem 27: deterministic CD
# ---------------------------------------------------------------------------


def _tree_mark_round(
    ctx: NodeCtx,
    parent_uid,
    label: int,
    max_layers: int,
    id_space: int,
    sending: bool,
    listening: bool,
    engaged: bool = True,
):
    """One CD* round on the cluster graph (Lemma 29): Down-cast the mark
    inside sending clusters, one deterministic All-cast across boundaries,
    Up-cast receptions to the root.  Returns True iff the mark reached
    this vertex's root-ward path.

    Vertices whose cluster is outside the scheduled prefix class pass
    ``engaged=False`` and sleep through the whole round (this is what
    keeps per-vertex energy at O(log N) participations per level)."""
    sweep = max(0, max_layers - 1)
    round_slots = (
        sweep * downward_slots(id_space)
        + (det_frame_length(id_space) + id_space)
        + sweep * upward_slots(id_space)
    )
    if not engaged:
        if round_slots:
            yield Idle(round_slots)
        return False
    held: Optional[Any] = ("m",) if (sending and label == 0) else None
    held = yield from det_down_cast(
        ctx, label, parent_uid, held, max_layers, id_space,
        transform=lambda m: m,
    )
    # All-cast: marked members transmit; listening-cluster members receive.
    got = yield from sr_det_cd_payload(
        ctx,
        Role.SENDER if held is not None else (
            Role.RECEIVER if listening else Role.IDLE
        ),
        ctx.uid if held is not None else None,
        held,
        id_space,
    )
    if held is None and got is not None:
        held = ("m",)
    held = yield from det_up_cast(
        ctx, label, parent_uid, held, max_layers, id_space,
        transform=lambda m: ("m",),
    )
    return held is not None


def det_cd_broadcast_protocol(
    iterations: Optional[int] = None,
    merge_rounds: Optional[int] = None,
    gl_diameter_bound: Optional[int] = None,
):
    """Factory for the Theorem 27 deterministic CD broadcast."""

    def protocol(ctx: NodeCtx):
        n = ctx.n
        id_space = ctx.id_space or n
        bits = max(1, ceil_log2(max(2, id_space)))
        iters = iterations if iterations is not None else ceil_log2(max(2, n)) + 2
        rounds = merge_rounds if merge_rounds is not None else bits + 2

        cid = ctx.uid
        label = 0
        parent_uid: Optional[int] = None
        max_layers = 1

        for _ in range(iters):
            cid, label, parent_uid = yield from _det_cd_iteration(
                ctx, bits, id_space, rounds, cid, label, parent_uid, max_layers
            )
            max_layers = min(n, (max_layers + 1) * (rounds + 2))

        payload = ctx.inputs.get("payload") if ctx.inputs.get("source") else None
        scheme = DetCDScheme(id_space)
        d_bound = gl_diameter_bound if gl_diameter_bound is not None else n - 1
        payload = yield from broadcast_on_labeling(
            ctx, scheme, label, payload, n, d_bound
        )
        return payload

    return protocol


def _det_cd_iteration(
    ctx: NodeCtx,
    bits: int,
    id_space: int,
    rounds: int,
    cid: int,
    label: int,
    parent_uid,
    max_layers: int,
):
    """One clustering iteration: Lemma 26 ruling set (sequential prefix
    recursion, CD*-simulated on the cluster graph), then O(log N) merge
    rounds absorbing every cluster into a ruling cluster's group."""
    id0 = cid - 1
    in_ruling = label == 0  # roots only; members carry False harmlessly

    # --- Lemma 26: sequential prefix recursion ---------------------------
    # Levels bottom-up; within a level, classes in prefix order.  Every
    # vertex knows its class from cid, so the global schedule is implicit.
    for lvl in range(bits - 1, -1, -1):
        for prefix in range(2**lvl):
            my_class = (id0 >> (bits - lvl)) == prefix
            my_bit = (id0 >> (bits - lvl - 1)) & 1
            # Roots seed marks only when in the left child's ruling set;
            # members relay value-driven, so the flag matters at roots.
            sending = my_bit == 0 and in_ruling
            listening = my_class and my_bit == 1
            heard = yield from _tree_mark_round(
                ctx, parent_uid, label, max_layers, id_space,
                sending, listening, engaged=my_class,
            )
            if label == 0 and in_ruling and my_class and my_bit == 1 and heard:
                in_ruling = False

    # --- merge toward ruling clusters ------------------------------------
    # State in the new clustering: (group cid, new label, new parent).
    assigned: Optional[Tuple[int, int, Optional[int]]] = None
    if in_ruling and label == 0:
        assigned = (cid, 0, None)
    elif label > 0:
        assigned = None  # members learn via the down-casts below

    # Ruling clusters keep their structure; announce to members.
    keep = yield from det_down_cast(
        ctx, label, parent_uid,
        ("keep", cid) if assigned is not None and label == 0 else None,
        max_layers, id_space, transform=lambda m: m,
    )
    if assigned is None and keep is not None and keep[0] == "keep":
        assigned = (keep[1], label, parent_uid)

    for merge_round in range(rounds):
        # Requests: assigned members transmit (group, their new label);
        # unassigned members listen.
        role = Role.SENDER if assigned is not None else Role.RECEIVER
        got = yield from sr_det_cd_payload(
            ctx, role,
            ctx.uid if assigned is not None else None,
            ("req", assigned[0], assigned[1]) if assigned is not None else None,
            id_space,
        )
        candidate = None
        if assigned is None and got is not None and got[1][0] == "req":
            sender_uid, req = got
            candidate = (ctx.uid, req[1], req[2] + 1, sender_uid)
            # (token=own uid, group cid, my new label, new parent uid)

        if assigned is None:
            root_value = yield from det_up_cast(
                ctx, label, parent_uid, candidate, max_layers, id_space,
                transform=lambda m: m[1],
            )
            winner_init = root_value if label == 0 else None
            winner = yield from det_down_cast(
                ctx, label, parent_uid, winner_init, max_layers, id_space,
                transform=lambda m: m,
            )
            if winner is None and label == 0 and candidate is not None:
                winner = candidate
            # Relabel through v*.
            relabel = None
            new_parent_cell = [None]
            if (
                winner is not None
                and candidate is not None
                and winner[0] == candidate[0]
            ):
                new_parent_cell[0] = candidate[3]
                relabel = (candidate[1], candidate[2])

            def bump_up(message):
                child_uid, payload = message
                new_parent_cell[0] = child_uid
                return (payload[0], payload[1] + 1)

            def bump_down(message):
                new_parent_cell[0] = None  # parent stays the old parent
                return (message[0], message[1] + 1)

            relabel = yield from det_up_cast(
                ctx, label, parent_uid, relabel, max_layers, id_space,
                transform=bump_up,
            )
            relabel = yield from det_down_cast(
                ctx, label, parent_uid, relabel, max_layers, id_space,
                transform=bump_down,
            )
            if relabel is not None:
                new_parent = (
                    new_parent_cell[0]
                    if new_parent_cell[0] is not None
                    else parent_uid
                )
                assigned = (relabel[0], relabel[1], new_parent)
        else:
            sweep = max(0, max_layers - 1)
            up_len = sweep * upward_slots(id_space)
            down_len = sweep * downward_slots(id_space)
            total = 2 * (up_len + down_len)
            if total:
                yield Idle(total)

    if assigned is None:
        assigned = (cid, label, parent_uid)
    return assigned
