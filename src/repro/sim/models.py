"""Collision models: LOCAL, CD, No-CD, CD*, BEEP — plus fault injection.

Each model resolves what a listener hears given the multiset of messages
transmitted by its neighbors in a slot (paper Section 1, "The Model";
CD* is defined in Section 6.3; the beeping model in [8]).
:class:`LossyModel` wraps any model with i.i.d. per-transmission erasure,
for robustness experiments (the paper's algorithms tolerate per-frame
failure probability f; erasures stress exactly that budget).
"""

from __future__ import annotations

import random
from typing import Any, Optional, Sequence

from repro.sim.feedback import BEEP, NOISE, SILENCE

__all__ = [
    "ChannelModel",
    "NEEDS_MESSAGES",
    "LOCAL",
    "CD",
    "NO_CD",
    "CD_STAR",
    "BEEPING",
    "MODELS",
    "LossyModel",
]


class _NeedsMessages:
    """Sentinel a count-based model returns from :meth:`resolve_count`
    when it cannot decide from ``(k, first_message)`` alone and needs the
    full transmission list (e.g. LOCAL with >= 2 transmitters)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NEEDS_MESSAGES"


NEEDS_MESSAGES = _NeedsMessages()


class ChannelModel:
    """A named collision-resolution rule.

    Attributes:
        name: Human-readable model name as used in the paper.
        full_duplex: Whether :class:`~repro.sim.actions.SendListen` is legal.
            The paper's LOCAL model permits full duplex (Section 8); the
            single-hop networks of Theorem 2's reduction do too.
        supports_count: Whether :meth:`resolve_count` implements the
            model.  True for the five paper models — their outcome depends
            only on *how many* neighbors transmitted plus (sometimes) the
            lowest-index transmitter's message — so the engine can resolve
            via ``popcount(neighbor_mask & transmit_mask)`` without ever
            materializing the message list.  False for per-transmission
            models such as :class:`LossyModel`, which keep the list-based
            slow path.
        stateful: Whether resolving a reception mutates model state
            (e.g. :class:`LossyModel` consumes channel randomness).
            Stateful models reused across batched trials without a
            ``model_factory`` carry state from trial to trial;
            :func:`repro.sim.batch.run_trials` warns about that footgun.
        needs_first_message: Which contention counts require the lowest
            transmitter's message for :meth:`resolve_count` /
            :meth:`resolve_count_array` — ``"none"``, ``"one"`` (only
            ``k == 1``), or ``"any"`` (every ``k >= 1``).  The numpy
            backend uses this to skip the first-transmitter bit scan
            where the model cannot need it.
    """

    __slots__ = ("name", "full_duplex")

    supports_count = False
    stateful = False
    needs_first_message = "any"
    #: Whether the model needs per-slot context (:meth:`begin_slot`)
    #: before resolving receptions.  False for every stock model; fault
    #: wrappers (:mod:`repro.sim.faults`) set it to thread the slot
    #: number and on-air transmitter count into jamming decisions and
    #: Gilbert-Elliott chain advancement.
    slot_aware = False

    def __init__(self, name: str, full_duplex: bool = False) -> None:
        self.name = name
        self.full_duplex = full_duplex

    def resolve(self, transmissions: Sequence[Any]) -> Any:
        """Return what a listener hears.

        Args:
            transmissions: messages sent by the listener's transmitting
                neighbors this slot, ordered by sender index (ascending).
        """
        raise NotImplementedError

    def resolve_count(self, k: int, first_message: Any) -> Any:
        """Count-based fast path: resolve from the transmitter count alone.

        Args:
            k: number of transmitting neighbors.
            first_message: the message of the lowest-index transmitting
                neighbor (None when ``k == 0``).  With ``k == 1`` this is
                the sole transmission.

        Returns:
            The feedback, or :data:`NEEDS_MESSAGES` if the model needs the
            full ordered transmission list for this ``k``.

        Only called when :attr:`supports_count` is True; must agree with
        :meth:`resolve` on every input (the differential tests drive both
        paths against the reference simulator).
        """
        raise NotImplementedError

    def resolve_count_array(self, counts, firsts, transmitting):
        """Vectorized :meth:`resolve_count` over a whole slot (or batch).

        Args:
            counts: int64 numpy array of per-listener transmitter counts.
            firsts: int64 numpy array of the lowest transmitting
                neighbor's *vertex index* per listener.  Only the
                positions selected by :attr:`needs_first_message` are
                computed — everything else is uninitialized and must not
                be read.  None when the model declared
                ``needs_first_message == "none"``.
            transmitting: this slot's vertex -> message map.

        Returns:
            ``(out, needs)`` where ``out`` is a list of feedbacks (same
            length/order as ``counts``) and ``needs`` is a list of
            positions whose entry is :data:`NEEDS_MESSAGES` (the caller
            materializes the full ordered message list for those), or
            None when there are none.

        The base implementation loops :meth:`resolve_count`, so any
        count-supporting model works under the numpy backend; the five
        paper models override it with bulk classification.  Only called
        when :attr:`supports_count` is True.  ``first_message`` is
        looked up only for the counts selected by
        :attr:`needs_first_message` — the backend computes nothing else,
        so positions outside the selection must never be read.
        """
        need = self.needs_first_message
        counts_list = counts.tolist()
        firsts_list = (
            [None] * len(counts_list) if firsts is None else firsts.tolist()
        )
        out = []
        needs = []
        resolve_count = self.resolve_count
        for i, (k, f) in enumerate(zip(counts_list, firsts_list)):
            if k and (need == "any" or (need == "one" and k == 1)):
                first_message = transmitting[f]
            else:
                first_message = None
            feedback = resolve_count(k, first_message)
            if feedback is NEEDS_MESSAGES:
                needs.append(i)
            out.append(feedback)
        return out, (needs or None)

    def begin_slot(self, slot: int, n_transmitters: int) -> None:
        """Per-slot context hook for :attr:`slot_aware` models.

        Engines call this at most once per processed slot, with slots in
        ascending order, *before* any :meth:`resolve` call of that slot.
        ``n_transmitters`` is the number of on-air transmitters (after
        churn removed crashed nodes).  Engines may legally skip slots in
        which nothing transmits or listens, so implementations must be
        *path-independent*: the feedback produced at slot ``t`` may not
        depend on which earlier slots received a ``begin_slot`` call
        (see :class:`repro.sim.faults.GilbertElliottModel` for the lazy
        catch-up pattern that preserves rng-stream identity).
        """

    def __repr__(self) -> str:
        return f"ChannelModel({self.name})"


def _first_pairs(counts, firsts, select):
    """Iterate ``(position, first_vertex)`` over the rows selected by the
    boolean numpy array ``select``."""
    rows = select.nonzero()[0]
    return zip(rows.tolist(), firsts[rows].tolist())


class _LocalModel(ChannelModel):
    """No collisions: every listener hears every neighboring transmission."""

    supports_count = True
    needs_first_message = "one"

    def resolve(self, transmissions: Sequence[Any]) -> Any:
        return tuple(transmissions)

    def resolve_count(self, k: int, first_message: Any) -> Any:
        if k == 0:
            return ()
        if k == 1:
            return (first_message,)
        return NEEDS_MESSAGES

    def resolve_count_array(self, counts, firsts, transmitting):
        out = [()] * len(counts)
        for i, f in _first_pairs(counts, firsts, counts == 1):
            out[i] = (transmitting[f],)
        needs = (counts >= 2).nonzero()[0].tolist()
        for i in needs:
            out[i] = NEEDS_MESSAGES
        return out, (needs or None)


class _CDModel(ChannelModel):
    """Collision detection: 0 -> silence, 1 -> message, >=2 -> noise."""

    supports_count = True
    needs_first_message = "one"

    def resolve(self, transmissions: Sequence[Any]) -> Any:
        if not transmissions:
            return SILENCE
        if len(transmissions) == 1:
            return transmissions[0]
        return NOISE

    def resolve_count(self, k: int, first_message: Any) -> Any:
        if k == 0:
            return SILENCE
        if k == 1:
            return first_message
        return NOISE

    def resolve_count_array(self, counts, firsts, transmitting):
        out = [SILENCE] * len(counts)
        for i in (counts >= 2).nonzero()[0].tolist():
            out[i] = NOISE
        for i, f in _first_pairs(counts, firsts, counts == 1):
            out[i] = transmitting[f]
        return out, None


class _NoCDModel(ChannelModel):
    """No collision detection: 0 or >=2 -> silence, 1 -> message."""

    supports_count = True
    needs_first_message = "one"

    def resolve(self, transmissions: Sequence[Any]) -> Any:
        if len(transmissions) == 1:
            return transmissions[0]
        return SILENCE

    def resolve_count(self, k: int, first_message: Any) -> Any:
        return first_message if k == 1 else SILENCE

    def resolve_count_array(self, counts, firsts, transmitting):
        out = [SILENCE] * len(counts)
        for i, f in _first_pairs(counts, firsts, counts == 1):
            out[i] = transmitting[f]
        return out, None


class _CDStarModel(ChannelModel):
    """CD*: on any contention the listener receives one arbitrary message.

    We deterministically pick the message of the lowest-index transmitting
    neighbor (a legal adversarial choice, reproducible across runs).
    """

    supports_count = True
    needs_first_message = "any"

    def resolve(self, transmissions: Sequence[Any]) -> Any:
        if not transmissions:
            return SILENCE
        return transmissions[0]

    def resolve_count(self, k: int, first_message: Any) -> Any:
        return SILENCE if k == 0 else first_message

    def resolve_count_array(self, counts, firsts, transmitting):
        out = [SILENCE] * len(counts)
        for i, f in _first_pairs(counts, firsts, counts > 0):
            out[i] = transmitting[f]
        return out, None


class _BeepModel(ChannelModel):
    """Beeping model [8]: listeners only learn whether anyone transmitted."""

    supports_count = True
    needs_first_message = "none"

    def resolve(self, transmissions: Sequence[Any]) -> Any:
        return BEEP if transmissions else SILENCE

    def resolve_count(self, k: int, first_message: Any) -> Any:
        return BEEP if k else SILENCE

    def resolve_count_array(self, counts, firsts, transmitting):
        out = [SILENCE] * len(counts)
        for i in counts.nonzero()[0].tolist():
            out[i] = BEEP
        return out, None


LOCAL = _LocalModel("LOCAL", full_duplex=True)
CD = _CDModel("CD")
NO_CD = _NoCDModel("No-CD")
CD_STAR = _CDStarModel("CD*")
BEEPING = _BeepModel("BEEP")

class LossyModel(ChannelModel):
    """Erasure-channel wrapper: each incoming transmission is dropped
    independently with probability ``loss_rate`` *before* the inner model
    resolves collisions.  A dropped transmission neither delivers nor
    collides (deep fade), so CD listeners may hear spurious silence or a
    message despite contention — the harshest fault mode for the paper's
    detection-based protocols.

    Erasure is decided per transmission, so the outcome is not a function
    of the transmitter count: ``supports_count`` stays False and the
    engine materializes the full message list (the slow path) for every
    reception under this model.
    """

    __slots__ = ("inner", "loss_rate", "_rng")

    stateful = True

    def __init__(
        self,
        inner: ChannelModel,
        loss_rate: float,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not (
            isinstance(loss_rate, (int, float))
            and not isinstance(loss_rate, bool)
            and 0 <= loss_rate <= 1
        ):
            raise ValueError(f"loss_rate must be in [0,1], got {loss_rate!r}")
        if seed is not None and rng is not None:
            raise ValueError(
                "LossyModel takes seed= or rng=, not both (a seed builds "
                "a fresh random.Random(seed); an rng is used as-is)"
            )
        super().__init__(f"lossy({inner.name},{loss_rate})", inner.full_duplex)
        self.inner = inner
        self.loss_rate = loss_rate
        self._rng = rng if rng is not None else random.Random(
            0 if seed is None else seed
        )

    def __repr__(self) -> str:
        return (
            f"LossyModel({self.inner.name!r}, "
            f"loss_rate={self.loss_rate})"
        )

    def resolve(self, transmissions: Sequence[Any]) -> Any:
        surviving = [
            message
            for message in transmissions
            if self._rng.random() >= self.loss_rate
        ]
        return self.inner.resolve(surviving)


# Full-duplex variants used by the paper's single-hop settings: Theorem 2's
# reduction explicitly allows devices to "send and listen simultaneously
# (the full duplex model)".
CD_FD = _CDModel("CD-FD", full_duplex=True)
NO_CD_FD = _NoCDModel("No-CD-FD", full_duplex=True)

MODELS = {m.name: m for m in (LOCAL, CD, NO_CD, CD_STAR, BEEPING, CD_FD, NO_CD_FD)}
