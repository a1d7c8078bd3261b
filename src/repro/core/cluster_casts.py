"""Cluster-aware casts (Section 6.2, Lemma 17).

When casts must stay *inside* a cluster (or cross only cluster
boundaries), plain SR-communication is not enough: neighboring clusters
would collide forever.  The paper's fix is the shared random string: all
members of a cluster hold the same seed, so they can toss a common coin
and have the whole cluster enter the sender set S with probability 1/C in
each of O(C log n) repetitions.  For any receiver, w.h.p. some repetition
has exactly the relevant neighboring cluster active, and the underlying
SR-communication delivers.

Receivers filter by cluster id: ``accept`` decides which messages count
(same-cluster for Downward/Upward transmission, any-other-cluster for the
All-cast between clusters).  The layered Downward/Upward casts keep
Lemma 10's two positions per vertex by running through
:func:`repro.core.casts.sweep`, one position being ``reps`` SR frames.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.core.casts import sweep
from repro.core.schemes import SRScheme
from repro.core.sr_comm import Role
from repro.sim.node import NodeCtx

__all__ = [
    "cluster_coin",
    "cluster_sr",
    "cluster_down_cast",
    "cluster_up_cast",
    "cluster_all_cast",
]


def cluster_coin(seed: int, tag, rep: int, probability: float) -> bool:
    """A coin all members of a cluster can toss identically."""
    return random.Random(f"{seed}|{tag}|{rep}").random() < probability


def cluster_sr(
    ctx: NodeCtx,
    scheme: SRScheme,
    role: Role,
    message: Any,
    seed: Optional[int],
    tag,
    contention: int,
    reps: int,
    accept: Callable[[Any], bool],
):
    """``reps`` SR frames with cluster-level subsampling (Lemma 17).

    Senders participate in repetition r only when their cluster's coin
    (probability 1/contention) comes up; receivers listen every repetition
    until a message passing ``accept`` arrives, then idle out.  Returns the
    accepted message or None.
    """
    probability = 1.0 / max(1, contention)
    received: Optional[Any] = None
    for rep in range(reps):
        if role is Role.SENDER and cluster_coin(seed, tag, rep, probability):
            yield from scheme.communicate(ctx, Role.SENDER, message)
        elif role is Role.RECEIVER and received is None:
            candidate = yield from scheme.communicate(ctx, Role.RECEIVER)
            if candidate is not None and accept(candidate):
                received = candidate
        else:
            yield from scheme.idle_frames(1)
    return received


def _cluster_cast(
    ctx: NodeCtx,
    scheme: SRScheme,
    recv_at: int,
    send_at: int,
    cid: int,
    seed: int,
    value,
    max_layers: int,
    contention: int,
    reps: int,
    tag,
    transform: Callable[[Any], Any],
):
    """A layered cast inside the cluster ``cid``: :func:`casts.sweep
    <repro.core.casts.sweep>` over ``max_layers - 1`` positions of
    ``reps`` SR frames each, where messages from other clusters are
    filtered out."""

    def accept(message) -> bool:
        return message[0] == cid

    return sweep(
        max_layers - 1, reps * scheme.frame_length, recv_at, send_at, value,
        lambda at: cluster_sr(
            ctx, scheme, Role.RECEIVER, None, seed,
            (tag, at), contention, reps, accept,
        ),
        lambda at, held: cluster_sr(
            ctx, scheme, Role.SENDER, (cid, held), seed,
            (tag, at), contention, reps, accept,
        ),
        lambda message: transform(message[1]),
    )


def cluster_down_cast(
    ctx: NodeCtx,
    scheme: SRScheme,
    layer: int,
    cid: int,
    seed: int,
    value,
    max_layers: int,
    contention: int,
    reps: int,
    tag,
    transform: Callable[[Any], Any],
):
    """Downward transmission sweep: values flow layer i -> i+1 inside the
    cluster identified by ``cid`` (messages from other clusters are
    filtered out)."""
    return _cluster_cast(
        ctx, scheme, layer - 1, layer, cid, seed, value, max_layers,
        contention, reps, ("dc", tag), transform,
    )


def cluster_up_cast(
    ctx: NodeCtx,
    scheme: SRScheme,
    layer: int,
    cid: int,
    seed: int,
    value,
    max_layers: int,
    contention: int,
    reps: int,
    tag,
    transform: Callable[[Any], Any],
):
    """Upward transmission sweep: values flow layer i -> i-1 inside the
    cluster (sweep positions run from the deepest layer toward 0)."""
    return _cluster_cast(
        ctx, scheme, max_layers - 2 - layer, max_layers - 1 - layer, cid,
        seed, value, max_layers, contention, reps, ("uc", tag), transform,
    )


def cluster_all_cast(
    ctx: NodeCtx,
    scheme: SRScheme,
    role: Role,
    message: Any,
    seed: Optional[int],
    contention: int,
    reps: int,
    tag,
    accept: Callable[[Any], bool],
):
    """All-cast between clusters: one frame of ``reps`` repetitions."""
    return cluster_sr(
        ctx, scheme, role, message, seed, ("ac", tag), contention, reps, accept
    )
