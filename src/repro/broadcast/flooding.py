"""Baseline broadcast algorithms.

* :func:`decay_broadcast_protocol` — the seminal Decay algorithm of
  Bar-Yehuda, Goldreich and Itai [4]: time-efficient
  (O((D + log n) log Delta log n) slots here), but every uninformed vertex
  listens continuously, so per-vertex energy grows with D.  This is the
  paper's motivating contrast: time-optimal-ish, energy-terrible.
* :func:`local_flood_protocol` — trivial LOCAL flooding: optimal O(D)
  rounds, energy up to O(D) for vertices far from the source that listen
  from slot 0.

Both work in any collision model (decay never relies on collision
detection; LOCAL flooding is LOCAL-only).
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.core.sr_comm import DecayParams, Role, sr_nocd
from repro.sim.actions import Idle, Send
from repro.sim.plan import ListenUntil
from repro.sim.node import NodeCtx
from repro.util import ceil_log2

__all__ = [
    "decay_broadcast_protocol",
    "local_flood_protocol",
    "decay_broadcast_slots",
]


def decay_broadcast_slots(n: int, max_degree: int, diameter: int, failure: float) -> int:
    params = DecayParams.for_graph(max_degree, failure)
    rounds = _decay_rounds(n, diameter, failure)
    return rounds * params.frame_length


def _decay_rounds(n: int, diameter: int, failure: float) -> int:
    # Each frame advances the informed frontier one hop w.h.p.; D + O(log n)
    # frames suffice (standard pipelined-decay analysis).
    return diameter + 2 * ceil_log2(max(2, n)) + 4


def decay_broadcast_protocol(
    failure: Optional[float] = None,
    relay_rounds: Optional[int] = None,
):
    """Factory for the BGI Decay broadcast baseline.

    Args:
        failure: per-frame SR failure probability (default 1/n^2).
        relay_rounds: how many frames an informed vertex keeps
            retransmitting (default: until the schedule ends, the classic
            energy-oblivious behaviour).
    """

    def protocol(ctx: NodeCtx):
        n = ctx.n
        f = failure if failure is not None else 1.0 / (n * n)
        diameter = ctx.diameter if ctx.diameter is not None else n - 1
        params = DecayParams.for_graph(ctx.max_degree, f)
        rounds = _decay_rounds(n, diameter, f)
        payload: Optional[Any] = (
            ctx.inputs.get("payload") if ctx.inputs.get("source") else None
        )
        sends_left = relay_rounds if relay_rounds is not None else rounds
        for _ in range(rounds):
            if payload is not None:
                if sends_left > 0:
                    yield from sr_nocd(ctx, Role.SENDER, payload, params)
                    sends_left -= 1
                else:
                    yield from sr_nocd(ctx, Role.IDLE, None, params)
            else:
                received = yield from sr_nocd(ctx, Role.RECEIVER, None, params)
                if received is not None:
                    payload = received
        return payload

    return protocol


def local_flood_protocol():
    """Factory for one-slot-per-round LOCAL flooding.

    Round r: every vertex informed before round r transmits once (then
    quits); uninformed vertices listen.  Time D+1 rounds of 1 slot.

    Phase-compiled: an uninformed vertex's whole listening phase is one
    ``ListenUntil`` plan (listen until the first non-empty LOCAL
    feedback); it then transmits once in the next round — ``ctx.time``
    tells it which round that is — and idles out the schedule.  Slot
    pattern and results are byte-identical to the per-slot loop.
    """

    def protocol(ctx: NodeCtx):
        diameter = ctx.diameter if ctx.diameter is not None else ctx.n - 1
        payload: Optional[Any] = (
            ctx.inputs.get("payload") if ctx.inputs.get("source") else None
        )
        rounds = diameter + 1
        send_round = 0
        if payload is None:
            feedback = yield ListenUntil(rounds)
            if feedback is None:
                # Nothing arrived within the schedule.
                return None
            payload = feedback[0]
            send_round = ctx.time  # the round right after the reception
        if send_round < rounds:
            yield Send(payload)
            remaining = rounds - send_round - 1
            if remaining:
                yield Idle(remaining)
        return payload

    return protocol
