"""Single-hop leader election (the paper's substrate literature).

* :func:`uniform_le_cd_protocol` — the uniform leader-election algorithm
  in the style of Nakano-Olariu [30], used by Lemma 8's generic
  transformation: all stations observe the channel (full-duplex CD); the
  per-slot transmission probability 2^-k follows the shared
  :class:`~repro.core.sr_comm.UniformController` (doubling, then binary
  search, then steady alternation; a CD SR receiver listens by the same
  controller), so k depends only on the channel history — exactly the
  uniformity Lemma 8 needs.
  Time O(log log n') + exponential tail.
* :func:`deterministic_le_cd_protocol` — deterministic CD leader election
  by electing the minimum ID via the Lemma 24 bit-by-bit binary search;
  Theta(log N) energy, the optimum cited from [7, 20].

Outcome convention: every station returns the elected leader's tag, so a
run is correct when all outputs agree and name an actual participant.
"""

from __future__ import annotations

from typing import Optional

from repro.core.sr_comm import Role, UniformController, sr_det_cd
from repro.sim.actions import Listen, SendListen
from repro.sim.feedback import NOISE, SILENCE, is_message
from repro.sim.node import NodeCtx
from repro.util import ceil_log2

__all__ = [
    "uniform_le_cd_protocol",
    "deterministic_le_cd_protocol",
]


def uniform_le_cd_protocol(max_slots: Optional[int] = None):
    """Factory for uniform leader election in full-duplex CD (clique).

    Every station participates.  In each slot every station transmits its
    random tag with probability 2^-k (k from the shared controller) and
    observes the channel.  A station that transmitted and heard silence is
    the unique transmitter: it wins and announces itself in one final
    confirmation slot.  Returns the leader's tag (or None on timeout).
    """

    def protocol(ctx: NodeCtx):
        budget = max_slots if max_slots is not None else 40 + 12 * ceil_log2(
            max(2, ctx.n)
        )
        my_tag = ctx.rng.getrandbits(60)
        # Every station feeds the controller the same outcome, so all of
        # them compute the same k: a transmitter that hears anything but
        # silence knows there were >= 2 transmitters, as a listener's
        # NOISE does.
        controller = UniformController(max_k=ceil_log2(max(2, ctx.n)) + 2)
        for _ in range(budget):
            k = controller.next_k()
            transmit = ctx.rng.random() < 2.0**-k
            if transmit:
                feedback = yield SendListen(("cand", my_tag))
                if feedback is SILENCE:
                    # Unique transmitter: claim leadership.
                    yield SendListen(("leader", my_tag))
                    return my_tag
                outcome = NOISE  # >= 2 transmitters (incl. me)
            else:
                feedback = yield Listen()
                if is_message(feedback):
                    if feedback[0] == "leader":
                        return feedback[1]
                    # Unique transmitter exists; it will claim next slot.
                    confirm = yield Listen()
                    if is_message(confirm) and confirm[0] == "leader":
                        return confirm[1]
                    # Claim lost (cannot happen in a clique); resync below.
                    outcome = NOISE
                elif feedback is NOISE:
                    outcome = NOISE
                else:
                    outcome = SILENCE
            controller.observe(k, outcome)
        return None

    return protocol


def deterministic_le_cd_protocol(id_space: Optional[int] = None):
    """Factory for deterministic CD leader election: elect the minimum ID
    via the Lemma 24 prefix search (everyone is both sender and receiver).

    Returns the winning ID; energy O(log N) per station, time O(N).
    """

    def protocol(ctx: NodeCtx):
        space = id_space if id_space is not None else (ctx.id_space or ctx.n)
        learned = yield from sr_det_cd(ctx, Role.BOTH, ctx.uid - 1, space)
        return (learned + 1) if learned is not None else ctx.uid

    return protocol
