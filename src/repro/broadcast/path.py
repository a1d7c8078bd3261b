"""Broadcast on a path (Section 8, Algorithm 1, Theorem 21).

Every vertex samples a blocking time B = 2^b with Pr(b = i) = 2^-i (capped
at n, with n rounded up to a power of two).  At paper-time t = 1 each
vertex tells its downstream neighbor when its next message will come and
sets a SendAlarm for time B.  Until B the vertex merely *tracks* upstream
traffic through these "next message after i" synchronization promises,
listening only at promised times; from B on it forwards everything it
receives with a one-slot lag.  At B it either releases the payload (if the
payload already arrived) or re-promises, and the promise algebra
guarantees nobody ever listens at a dead slot: a vertex that receives at
time t >= B forwards the verbatim message at t+1, and a forwarded
"next after i" is exactly correct for the next hop.

The model is full-duplex LOCAL (Section 8: "we will assume we are working
in the full duplex LOCAL model").  Guarantees (Theorem 21): worst-case
time <= 2n slots; expected per-vertex energy O(log n).

Two modes:

* oriented — each vertex knows which port faces the source (the
  pseudocode's setting); requires ``source == 0``.
* unoriented — each vertex runs one instance per neighbor-as-upstream, as
  the paper prescribes, doubling energy; works for any source position.

Messages are addressed by neighbor port; in the simulator this is encoded
with vertex indices, standing in for the physical "which of my two
neighbors sent this" information a radio gets for free.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.actions import Idle, Listen, Send, SendListen
from repro.sim.node import NodeCtx
from repro.util import ceil_log2, geometric

__all__ = ["path_broadcast_protocol", "sample_blocking_time"]

_SYNC = "sync"  # part = (_SYNC, i): "next message after i timesteps"
_PAYLOAD = "payload"  # part = (_PAYLOAD, m)
_LISTEN = Listen()  # shared: Listen carries no per-slot state


def sample_blocking_time(rng, n_pow2: int) -> int:
    """Sample B: Pr(B = 2^b) = 2^-b for 1 <= b < log2 n, else B = n."""
    log_n = max(1, ceil_log2(n_pow2))
    b = geometric(rng, 0.5)
    return 2 ** min(b, log_n)


class _Instance:
    """One directional run of Algorithm 1 at one vertex.

    An instance listens only at times its upstream promised, and each part
    it hears promises at most one more, so it has at most one pending
    listen, ``listen_at``.  It sends only at its SendAlarm or one slot
    after a reception, so it has at most one pending send: the
    ``(downstream, part)`` pair ``send``, due at ``send_at``.  ``next`` is
    its next event time, None once nothing is pending (it is done).
    """

    __slots__ = (
        "vertex", "upstream", "downstream", "blocking_time", "payload",
        "got_payload", "listen_at", "send_at", "send", "send_alarm", "next",
    )

    def __init__(
        self,
        vertex: int,
        upstream: Optional[int],
        downstream: Optional[int],
        blocking_time: int,
        is_source: bool,
        payload: Any,
    ) -> None:
        self.vertex = vertex
        self.upstream = upstream
        self.downstream = downstream
        self.blocking_time = blocking_time
        self.payload = payload
        self.got_payload = is_source
        self.listen_at: Optional[int] = None
        self.send_at: Optional[int] = None
        self.send: Any = None
        self.send_alarm: Optional[int] = None
        # Paper-time 1: the source releases the payload; every other
        # vertex promises its next message (at B) and listens upstream.
        if downstream is not None:
            self.send_at = 1
            if is_source:
                self.send = (downstream, (_PAYLOAD, payload))
            else:
                self.send = (downstream, (_SYNC, blocking_time - 1))
                self.send_alarm = blocking_time
        if upstream is not None and not is_source:
            self.listen_at = 1
        self.next = (
            1 if self.send_at is not None or self.listen_at is not None
            else None
        )

    def before(self, t: int):
        """Fire the SendAlarm due at paper-time t (its content may not
        depend on what arrives during t), then return the ``(downstream,
        part)`` pair to send at t (or None) and whether to listen at t."""
        if self.send_alarm == t:
            self.send_alarm = None
            if self.got_payload:
                self.send_at = t
                self.send = (self.downstream, (_PAYLOAD, self.payload))
            elif self.listen_at is not None:
                # Promise the slot after the next upstream message.
                self.send_at = t
                self.send = (self.downstream, (_SYNC, self.listen_at + 1 - t))
            # Otherwise upstream went silent without delivering: there is
            # nothing to promise, and after(t) finds nothing pending.
        return (
            self.send if self.send_at == t else None,
            self.listen_at == t,
        )

    def after(self, t: int, feedback) -> Optional[int]:
        """Finish paper-time t: take in the part that upstream addressed
        to this vertex in ``feedback`` (hearing nothing means upstream
        quit, so nothing new is pending), clear t, and return the next
        event time, or None when nothing is pending."""
        if self.send_at == t:
            self.send_at = None
        if self.listen_at == t:
            self.listen_at = None
            part = None
            if feedback:
                upstream, vertex = self.upstream, self.vertex
                for tag, sender, parts in feedback:
                    if sender == upstream and tag == "path":
                        for to, sent in parts:
                            if to == vertex:
                                part = sent
            if part is not None:
                if part[0] == _SYNC:
                    self.listen_at = t + part[1]
                else:
                    self.got_payload = True
                    self.payload = part[1]
                if t >= self.blocking_time and self.downstream is not None:
                    # Forwarding mode: relay the verbatim part one slot later.
                    self.send_at = t + 1
                    self.send = (self.downstream, part)
        at, send_at, alarm = self.listen_at, self.send_at, self.send_alarm
        if send_at is not None and (at is None or send_at < at):
            at = send_at
        if alarm is not None and (at is None or alarm < at):
            at = alarm
        return at


def path_broadcast_protocol(oriented: bool = True):
    """Factory for Algorithm 1.

    Args:
        oriented: vertices know their upstream port (pseudocode setting;
            source must be vertex 0).  When False, each vertex runs both
            directional instances (the paper's general setting) at twice
            the energy.
    """

    def protocol(ctx: NodeCtx):
        n = ctx.n
        n_pow2 = 2 ** ceil_log2(max(2, n))
        v = ctx.index
        left = v - 1 if v > 0 else None
        right = v + 1 if v < n - 1 else None
        is_source = bool(ctx.inputs.get("source"))
        payload = ctx.inputs.get("payload")
        if oriented and is_source and v != 0:
            raise ValueError("oriented mode assumes the source is vertex 0")

        links = (
            ((left, right),) if oriented else ((left, right), (right, left))
        )
        instances = tuple(
            _Instance(v, upstream, downstream,
                      sample_blocking_time(ctx.rng, n_pow2),
                      is_source, payload)
            for upstream, downstream in links
        )

        # One event per paper-time t at which some instance acts.  Plain
        # loops over the instances, and the idle gap and the slot's action
        # as two plain yields: both measured cheaper per event than
        # comprehensions and a two-action Steps plan.
        now = 0  # paper-time of the previous event
        while True:
            t = None
            for inst in instances:
                at = inst.next
                if at is not None and (t is None or at < t):
                    t = at
            if t is None:
                break
            out = ()
            listening = False
            for inst in instances:
                if inst.next == t:
                    send, listen = inst.before(t)
                    if send is not None:
                        out += (send,)
                    if listen:
                        listening = True
            gap = t - 1 - now  # the engine slot of paper-time t is t - 1
            now = t
            if out:
                msg = ("path", v, out)
                act: Any = SendListen(msg) if listening else Send(msg)
            elif listening:
                act = _LISTEN
            else:
                act = None
            if act is None:
                # Nothing to do at t either: sleep through it.
                yield Idle(gap + 1)
                feedback = None
            else:
                if gap:
                    yield Idle(gap)
                feedback = yield act
            for inst in instances:
                if inst.next == t:
                    inst.next = inst.after(t, feedback)

        for inst in instances:
            if inst.got_payload:
                return inst.payload
        return None

    return protocol
