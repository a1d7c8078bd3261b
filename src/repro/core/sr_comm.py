"""SR-communication: the paper's basic building block (Section 4).

Given disjoint vertex sets S (senders) and R (receivers), every receiver
with at least one S-neighbor should, with probability 1 - f, receive a
message from some S-neighbor.  Three implementations:

* :func:`sr_nocd` — Lemma 7: the decay protocol of Bar-Yehuda et al. [4].
  Time and per-vertex energy O(log Delta log 1/f).
* :func:`sr_cd` — Lemma 8: the generic transformation of a uniform
  single-hop leader-election algorithm ([30]-style doubling + binary-search
  controller).  Receiver energy O(log log Delta + log 1/f); senders
  transmit at most twice per epoch.  Supports Remark 9's O(1) probe
  opt-out and the "ack" variant for the S-has-one-R-neighbor special case.
* :func:`sr_local` — trivial one-slot LOCAL variant.
* :func:`sr_det_cd` — Lemma 24: deterministic CD binary search over the
  message space; time O(min(M, N)), energy O(log min(M, N)).

Every function is a generator meant to be driven with ``yield from`` inside
a node protocol.  **Fixed-frame contract**: for fixed parameters, every
vertex — sender, receiver, or bystander (role IDLE) — consumes *exactly*
``frame_length`` slots, so concurrent invocations across the network stay
slot-synchronized.  Early finishers pad with Idle.

The hot frames are *phase-compiled* (:mod:`repro.sim.plan`).  A sender's
schedule depends on nothing it hears, so decay senders and CD senders
without the ack slot draw every burst at frame start and yield the whole
frame as one ``Steps`` plan; decay receivers yield a single padded
``ListenUntil``; the deterministic interval schedules yield one ``Steps``
per round.  Both sender schedules are laid out inside their draw loops;
:func:`~repro.sim.plan.timeline` lays out the deterministic grids and the
CD receiver epochs from the slots where they act.  A sender frame thus
costs O(1) generator entries instead of O(frame_length).  Each node's rng
is its own and nothing else draws from it inside a frame, so drawing up
front draws the same numbers in the same order as a per-slot loop: slot
pattern, rng stream and results are byte-identical to the per-slot path
(the reference simulator, which expands every plan per slot, pins this).
Adaptive parts whose next slot depends on the previous feedback (probe
slots, ack slots, the Lemma 8 controller) stay per-slot or per-epoch —
the escape hatch plans are designed around.

Whatever is the same in every frame of one geometry (:class:`DecayParams`,
:class:`CDParams`) is built once, on first use, and kept on the params:
the bystander's and the satisfied node's idles, the decay sender's phase
tails, the CD slot probabilities and the CD receiver's epoch plans.  The
probe and ack actions are module constants.  Sharing them between frames
and nodes is safe because actions and plans are immutable by convention:
the engines and the oracle only read them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional, Tuple

from repro.sim.actions import Idle, Listen, Send
from repro.sim.feedback import NOISE, SILENCE, is_message
from repro.sim.node import NodeCtx
from repro.sim.plan import ListenUntil, Steps, timeline
from repro.util import ceil_log2

__all__ = [
    "Role",
    "DecayParams",
    "CDParams",
    "sr_nocd",
    "sr_cd",
    "sr_local",
    "sr_det_cd",
    "det_frame_length",
]

_PROBE = ("sr-probe",)
_ACK = ("sr-ack",)
# Shared actions: none carries per-slot state.
_LISTEN = Listen()
_SEND_PROBE = Send(_PROBE)
_SEND_ACK = Send(_ACK)
_IDLE_ONE = Idle(1)


class Role(enum.Enum):
    """A vertex's part in one SR-communication frame.

    ``BOTH`` (sender and receiver simultaneously) is only meaningful for
    the deterministic primitive, whose Lemma 24 statement allows S and R
    to intersect.
    """

    SENDER = "sender"
    RECEIVER = "receiver"
    BOTH = "both"
    IDLE = "idle"


def _idle_or_none(slots: int) -> Optional[Idle]:
    """One Idle covering ``slots`` slots, or None when there are none."""
    return Idle(slots) if slots > 0 else None


# ---------------------------------------------------------------------------
# Lemma 7: No-CD decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayParams:
    """Frame geometry for :func:`sr_nocd`.

    Attributes:
        slots_per_phase: ceil(log2 Delta) + 2 decay slots.
        phases: number of independent decay phases; each succeeds with
            constant probability, so phases = O(log 1/f).
    """

    slots_per_phase: int
    phases: int

    @classmethod
    def for_graph(cls, max_degree: int, failure: float) -> "DecayParams":
        """Parameters achieving failure probability <= ``failure`` for any
        receiver with between 1 and ``max_degree`` transmitting neighbors.

        One decay phase with K = ceil(log2 Delta) + 2 slots delivers with
        probability >= 1/4 for any contention level m <= Delta (standard
        decay analysis), hence phases = ceil(log_{4/3}(1/f)), about
        ceil(3.48 ln(1/f)), suffices; we use the slightly conservative
        ceil(5 ln(1/f) / ln 4) = ceil(5 log_4(1/f)): 15 phases at
        f = 0.02.
        """
        if not 0 < failure < 1:
            raise ValueError(f"failure must be in (0,1), got {failure}")
        import math

        slots = ceil_log2(max(2, max_degree)) + 2
        phases = max(1, math.ceil(5.0 * math.log(1.0 / failure) / math.log(4.0)))
        return cls(slots_per_phase=slots, phases=phases)

    @property
    def frame_length(self) -> int:
        return self.slots_per_phase * self.phases

    @cached_property
    def idle_frame(self) -> Optional[Idle]:
        """A bystander's whole frame as one Idle (None if empty)."""
        return _idle_or_none(self.frame_length)

    @cached_property
    def sender_tails(self) -> Tuple[Optional[Idle], ...]:
        """``sender_tails[length]`` idles out a phase after a burst of
        ``length`` sends: ``Idle(slots_per_phase - length)``, or None for
        a burst that fills the phase."""
        slots = self.slots_per_phase
        return tuple(_idle_or_none(slots - length) for length in range(slots + 1))


def sr_nocd(
    ctx: NodeCtx,
    role: Role,
    message: Any,
    params: DecayParams,
    accept=None,
):
    """One No-CD SR-communication frame (decay protocol, Lemma 7).

    Senders run decay in every phase: transmit in the first slot of the
    phase, keep transmitting with probability 1/2 per subsequent slot, then
    stay silent.  Receivers listen to every slot until they hear a message
    passing ``accept`` (default: any message), then idle out the rest of
    the frame.  Returns the received message (receivers) or None.

    Phase-compiled: the sender draws every phase's geometric burst
    length at frame start (same draws, same order as the per-slot loop)
    and yields the whole frame as one ``Steps`` plan; the receiver's
    whole frame is a single padded ``ListenUntil`` — listen until an
    accepted message, idle out the rest.  Both are exactly the per-slot
    path's slot pattern with O(1) generator entries.
    """
    slots, phases = params.slots_per_phase, params.phases
    if role is Role.IDLE:
        if params.idle_frame is not None:
            yield params.idle_frame
        return None
    if role is Role.SENDER:
        tails = params.sender_tails
        rand = ctx.rng.random
        send = Send(message)
        acts = []
        for _ in range(phases):
            length = 1
            while length < slots and rand() < 0.5:
                length += 1
            acts += (send,) * length
            if length < slots:
                acts.append(tails[length])
        yield Steps(tuple(acts))
        return None
    # Receiver: one plan for the whole frame.
    received = yield ListenUntil(slots * phases, accept=accept, pad=True)
    return received


# ---------------------------------------------------------------------------
# Lemma 8: CD generic transformation (uniform leader-election controller)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CDParams:
    """Frame geometry for :func:`sr_cd`.

    The frame is ``epochs`` epochs of ``slots_per_epoch`` decay-probability
    slots (senders transmit in slot i with probability 2^-(i+1), at most
    twice per epoch; the receiver listens at one controller-chosen slot),
    optionally preceded by two Remark 9 probe slots and optionally followed
    per-epoch by one ack slot (the Lemma 8 special case that lets senders
    stop early).
    """

    slots_per_epoch: int
    epochs: int
    probe: bool = False
    ack: bool = False

    @classmethod
    def for_graph(
        cls,
        max_degree: int,
        failure: float,
        probe: bool = False,
        ack: bool = False,
    ) -> "CDParams":
        """Epochs = O(log log Delta + log 1/f): doubling plus binary search
        over the O(log Delta) probability exponents takes 2 ceil(log2 K)
        epochs, after which each epoch succeeds with probability >= 1/8."""
        if not 0 < failure < 1:
            raise ValueError(f"failure must be in (0,1), got {failure}")
        import math

        slots = ceil_log2(max(2, max_degree)) + 2
        search = 2 * (ceil_log2(slots) + 1)
        steady = max(1, math.ceil(18.0 * math.log(1.0 / failure) / math.log(4.0)))
        return cls(
            slots_per_epoch=slots,
            epochs=search + steady,
            probe=probe,
            ack=ack,
        )

    @property
    def epoch_length(self) -> int:
        return self.slots_per_epoch + (1 if self.ack else 0)

    @property
    def frame_length(self) -> int:
        return (2 if self.probe else 0) + self.epoch_length * self.epochs

    @cached_property
    def idle_frame(self) -> Optional[Idle]:
        """A bystander's whole frame as one Idle (None if empty)."""
        return _idle_or_none(self.frame_length)

    @cached_property
    def after_probe(self) -> Optional[Idle]:
        """The Idle that ends the frame of a vertex the probe let out."""
        return _idle_or_none(self.epoch_length * self.epochs)

    @cached_property
    def after_epoch(self) -> Tuple[Optional[Idle], ...]:
        """``after_epoch[e]`` idles out the frame after epoch ``e`` (None
        after the last one)."""
        length, epochs = self.epoch_length, self.epochs
        return tuple(
            _idle_or_none(length * (epochs - 1 - e)) for e in range(epochs)
        )

    @cached_property
    def slot_probs(self) -> Tuple[float, ...]:
        """A sender's transmit probability in each slot i of an epoch,
        2^-(i+1)."""
        return tuple(2.0 ** -(i + 1) for i in range(self.slots_per_epoch))

    @cached_property
    def listen_epochs(self) -> Tuple[Any, ...]:
        """``listen_epochs[k - 1]``: a receiver's epoch plan that listens
        in slot k - 1 and idles in the others (a bare Listen when the
        epoch has one slot)."""
        slots = self.slots_per_epoch
        plans = []
        for slot in range(slots):
            acts = timeline(((slot, _LISTEN),), slots)
            plans.append(acts[0] if len(acts) == 1 else Steps(acts))
        return tuple(plans)


class UniformController:
    """The uniform [30]-style contention controller.

    Maintains a probability exponent k: doubling until the channel stops
    being noisy, then binary search, then alternate around the located
    contention level.  ``k`` depends only on past ``NOISE``/``SILENCE``
    feedback, matching the paper's uniformity requirement.  A CD SR
    receiver listens at slot k of each epoch.
    """

    def __init__(self, max_k: int) -> None:
        self.max_k = max_k
        self.lo = 0  # highest k known (or assumed) noisy
        self.hi: Optional[int] = None  # lowest k known silent
        self._doubling = 1
        self._flip = False

    def next_k(self) -> int:
        if self.hi is None:
            return min(self._doubling, self.max_k)
        if self.hi - self.lo > 1:
            return (self.hi + self.lo) // 2
        # Converged: alternate between the bracketing exponents.
        self._flip = not self._flip
        k = self.hi if self._flip else max(self.lo, 1)
        return min(max(k, 1), self.max_k)

    def observe(self, k: int, feedback: Any) -> None:
        if feedback is NOISE:
            self.lo = max(self.lo, k)
            if self.hi is None:
                if k >= self.max_k:
                    self.hi = self.max_k  # cap: treat top as bracket
                else:
                    self._doubling = min(self._doubling * 2, self.max_k)
        elif feedback is SILENCE:
            if self.hi is None or k < self.hi:
                self.hi = k
            if self.hi <= self.lo:
                self.lo = max(0, self.hi - 1)


def _cd_send_schedule(rand, send: Send, probs, epochs: int) -> tuple:
    """A CD sender's actions for ``epochs`` epochs, one slot per entry of
    ``probs`` (:attr:`CDParams.slot_probs`).

    In every epoch each slot i draws ``rand() < probs[i]``, in slot order
    (all of an epoch's draws happen), and the sender transmits ``send``
    in the first two slots that hit; idle gaps merge across epoch
    boundaries.  The actions are laid out in the draw loop itself: a hit
    closes the idle gap before it, and a miss lengthens it.
    """
    acts = []
    gap = 0
    for _ in range(epochs):
        hits = 0
        for p in probs:
            if rand() < p and hits < 2:
                if gap:
                    acts.append(Idle(gap))
                    gap = 0
                acts.append(send)
                hits += 1
            else:
                gap += 1
    if gap:
        acts.append(Idle(gap))
    return tuple(acts)


def sr_cd(
    ctx: NodeCtx,
    role: Role,
    message: Any,
    params: CDParams,
    accept=None,
):
    """One CD SR-communication frame (Lemma 8).

    Returns the received message for receivers, else None.  With
    ``params.probe`` (Remark 9), a sender with no listening neighbor and a
    receiver with no sending neighbor detect this in the two probe slots
    and spend O(1) energy.  With ``params.ack`` (the Lemma 8 special case),
    receivers that already got a message transmit an ack at the end of each
    epoch and their neighboring senders shut down.

    Phase-compiled: without the ack slot a sender draws every epoch's
    picks at frame start (same draws, same order as the per-epoch loop)
    and yields all its epochs as one ``Steps`` plan; with it, each epoch
    is one ``Steps`` plan followed by the per-slot ack listen.  A
    receiver yields one shared epoch plan per epoch (the controller needs
    each epoch's feedback) and, once it holds a message, one ``Idle``
    for the rest of the frame.
    """
    if role is Role.IDLE:
        if params.idle_frame is not None:
            yield params.idle_frame
        return None

    if params.probe:
        # Probe slot 1: senders transmit, receivers listen.  Probe slot 2:
        # receivers transmit, senders listen.  In CD, any feedback other
        # than silence proves a counterpart neighbor exists.
        if role is Role.SENDER:
            yield _SEND_PROBE
            heard = yield _LISTEN
        else:
            heard = yield _LISTEN
            if role is Role.RECEIVER:
                yield _SEND_PROBE
            else:  # Role.BOTH listens in both slots and never opts out
                yield _LISTEN
                heard = None
        if heard is SILENCE:
            if params.after_probe is not None:
                yield params.after_probe
            return None

    if role is Role.SENDER:
        # The schedule depends only on the rng draws, so it goes out as
        # Steps plans: every epoch at once without the ack slot, one per
        # epoch with it — the ack slot stays per-slot, because its
        # feedback decides the early exit.
        rand = ctx.rng.random
        send = Send(message)
        probs = params.slot_probs
        if not params.ack:
            yield Steps(_cd_send_schedule(rand, send, probs, params.epochs))
            return None
        for rest in params.after_epoch:
            yield Steps(_cd_send_schedule(rand, send, probs, 1))
            if (yield _LISTEN) is not SILENCE:
                # Some neighboring receiver is satisfied; stop early.
                if rest is not None:
                    yield rest
                return None
        return None

    # Receiver: one listening slot per epoch, controller-chosen.  The
    # epoch's idle/listen/idle schedule is one Steps plan; the feedback
    # comes back at the epoch boundary, which is exactly when the
    # controller needs it (the per-slot path also only acted on it then).
    plans = params.listen_epochs
    controller = UniformController(max_k=params.slots_per_epoch)
    received: Optional[Any] = None
    for rest in params.after_epoch:
        k = controller.next_k()  # 1-based exponent = slot index k-1
        plan = plans[k - 1]
        if plan is _LISTEN:
            feedback = yield plan
        else:
            feedback = (yield plan)[0]
        if is_message(feedback):
            if accept is None or accept(feedback):
                received = feedback
            # A rejected message still proves a lone transmitter; do
            # not update the contention controller from it.
        else:
            controller.observe(k, feedback)
        if params.ack:
            yield _IDLE_ONE if received is None else _SEND_ACK
        if received is not None:
            # Stay on schedule but free of charge once satisfied (with
            # the ack variant, the ack went out in this epoch).
            if rest is not None:
                yield rest
            break
    return received


# ---------------------------------------------------------------------------
# LOCAL: trivial one-slot variant
# ---------------------------------------------------------------------------


def sr_local(ctx: NodeCtx, role: Role, message: Any, slots: int = 1, accept=None):
    """LOCAL-model SR-communication: no collisions, one slot.

    Receivers get the tuple of all neighboring transmissions; we return the
    first (lowest sender index) passing ``accept``, matching the "receive
    one message" contract.
    """
    del ctx
    if slots != 1:
        raise ValueError("sr_local uses exactly one slot")
    if role is Role.SENDER:
        yield Send(message)
        return None
    if role is Role.RECEIVER:
        feedback = yield Listen()
        for msg in feedback:
            if accept is None or accept(msg):
                return msg
        return None
    yield Idle(1)
    return None


# ---------------------------------------------------------------------------
# Lemma 24: deterministic CD
# ---------------------------------------------------------------------------


def det_frame_length(space: int) -> int:
    """Slot count of :func:`sr_det_cd` for message space {0..space-1}:
    sum over bit positions x of 2^(x+1), i.e. 2*(2^ceil(log2 space) - 1),
    plus one final slot block is unnecessary since the value *is* the
    message."""
    bits = max(1, ceil_log2(max(2, space)))
    return 2 ** (bits + 1) - 2


def sr_det_cd(ctx: NodeCtx, role: Role, value: Optional[int], space: int):
    """Deterministic CD SR-communication of integer values (Lemma 24).

    Senders hold ``value`` in {0..space-1}.  Receivers learn
    f_v = min over values held by sending neighbors (and their own value,
    for ``Role.BOTH``).  Protocol, per bit position x = 0..bits-1
    (rounds of 2^(x+1) slots): a sender transmits at the slot indexed by
    the (x+1)-bit prefix of its value; a receiver listens at the two
    extensions p|0 and p|1 of its current prefix estimate p, skipping any
    slot its own value already certifies.  In CD, non-silence at a slot
    proves some neighbor holds that prefix, so receivers binary-search the
    minimum bit by bit.

    Returns the learned minimum (receivers/BOTH; None when no sender is
    audible and the vertex holds no value) or None (pure senders).
    Energy O(log space); time :func:`det_frame_length` (space) = O(space).
    """
    del ctx
    bits = max(1, ceil_log2(max(2, space)))
    if role is Role.IDLE:
        yield Idle(det_frame_length(space))
        return None

    sending = role in (Role.SENDER, Role.BOTH)
    listening = role in (Role.RECEIVER, Role.BOTH)
    if sending and value is None:
        raise ValueError("a sending vertex needs a value")
    if value is not None and not 0 <= value < space:
        raise ValueError(f"value {value} outside message space {space}")

    prefix = 0
    dead = False  # receiver's branch has no audible sender and no own value

    for x in range(bits):
        round_slots = 2 ** (x + 1)
        shift = bits - x - 1
        own_prefix = (value >> shift) if value is not None else None

        events = []  # (slot, action)
        listen_slots = []  # in slot order
        cand0 = cand1 = None
        if sending:
            events.append((own_prefix, Send(("det", own_prefix))))
        if listening and not dead:
            cand0, cand1 = 2 * prefix, 2 * prefix + 1
            listen_slots = [c for c in (cand0, cand1) if c != own_prefix]
            events += [(slot, _LISTEN) for slot in listen_slots]
            events.sort()

        # Phase-compiled round: the interval schedule is fixed once the
        # events are known, so it goes out as one Steps plan; the listen
        # outcomes come back as the plan result (they are only consumed
        # at the round boundary below, like the per-slot path).
        occupied = {}
        acts = timeline(events, round_slots)
        if listen_slots:
            heard = yield Steps(acts)
            for slot, feedback in zip(listen_slots, heard):
                occupied[slot] = feedback is not SILENCE
        else:
            yield acts[0] if len(acts) == 1 else Steps(acts)

        if listening and not dead:
            occ0 = occupied.get(cand0, False) or own_prefix == cand0
            occ1 = occupied.get(cand1, False) or own_prefix == cand1
            if occ0:
                prefix = cand0
            elif occ1:
                prefix = cand1
            else:
                dead = True

    if not listening:
        return None
    if dead:
        return value  # None when the vertex held nothing and heard nothing
    if value is not None:
        return min(prefix, value)
    return prefix


def sr_det_cd_payload(
    ctx: NodeCtx,
    role: Role,
    uid: Optional[int],
    payload: Any,
    id_space: int,
):
    """Lemma 24's M > N case: deliver arbitrary payloads deterministically.

    Phase 1 runs :func:`sr_det_cd` over the ID space so every receiver
    learns the minimum sender ID among its neighbors; phase 2 allocates one
    slot per ID, each sender transmits its payload at its own ID's slot
    (collision-free because IDs are distinct), and each receiver listens at
    the slot of the ID it learned.

    ``uid`` is 1-based (paper IDs live in {1..N}).  Returns (sender_uid,
    payload) for receivers that heard someone, else None.
    """
    sending = role in (Role.SENDER, Role.BOTH)
    value = (uid - 1) if (uid is not None and sending) else None
    learned = yield from sr_det_cd(
        ctx, role, value, id_space
    )
    # Phase 2 is a fixed one-slot-per-ID schedule once ``learned`` is
    # known: emit it as a single Steps plan and read the (at most one)
    # listen outcome from the plan result.
    send = Send(("payload", uid, payload)) if sending else None
    events = []
    own_payload = listened = False
    if role in (Role.RECEIVER, Role.BOTH) and learned is not None:
        # Own payload is the minimum: nothing to hear.  A listener that
        # also sends learned a smaller ID, so its listen comes first.
        own_payload = sending and learned == value
        listened = not own_payload
        events.append((learned, send if own_payload else _LISTEN))
    if sending and not own_payload:
        events.append((value, send))
    acts = timeline(events, id_space)
    if listened:
        (feedback,) = yield Steps(acts)
        if is_message(feedback) and feedback[0] == "payload":
            return (feedback[1], feedback[2])
        return None
    yield acts[0] if len(acts) == 1 else Steps(acts)
    return (uid, payload) if own_payload else None
