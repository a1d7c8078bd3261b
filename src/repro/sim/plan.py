"""Phase plans: slots-at-a-time protocol stepping.

After the PR-3 resolution backends, whole-run profiles are dominated by
generator stepping (``gen.send``), not channel resolution: every slot of
every active device costs one full generator resume through the
protocol's ``yield from`` chain.  The paper's protocols are overwhelmingly
*phase-structured* — fixed-length Send bursts (decay), "listen until you
hear something, then sleep out the frame" receivers, deterministic
interval schedules — so most of those resumes re-derive a decision the
protocol already made at the phase boundary.

A *phase plan* lets a protocol yield one object covering many slots:

* :class:`Repeat` — the same ``Send``/``Listen``/``SendListen`` action
  for ``count`` consecutive slots (``Repeat(Idle(d), k)`` normalizes to
  one idle block);
* :class:`ListenUntil` — listen up to ``slots`` slots, stopping at the
  first feedback that :func:`~repro.sim.feedback.is_message` and passes
  ``accept``; with ``pad=True`` the remaining slots are idled out so the
  plan always occupies exactly ``slots`` slots (the SR fixed-frame
  contract);
* :class:`Steps` — an arbitrary fixed sequence of per-slot actions
  (the heterogeneous escape hatch for interval schedules à la Lemma 24,
  and the shape of a whole SR sender frame whose bursts the protocol
  drew from ``ctx.rng`` before yielding it); :func:`timeline` builds
  one from the slots where a fixed schedule acts.

A plan draws no randomness of its own: every slot of it is fixed when
the protocol yields it, so the engines and the per-slot oracle consume
the node's rng stream identically by construction.

The engine (:mod:`repro.sim.engine`) and the trial-SoA engine
(:mod:`repro.sim.trialsoa`) cache each node's active plan in a compact
mutable state record and advance it with plain list/dict operations,
re-entering the generator only at feedback-relevant boundaries: a k-slot
phase costs O(1) generator entries instead of k.  Yielding plain per-slot
actions remains fully supported (and is the right choice for adaptive
protocols such as the CD SR receiver's controller, whose every slot
depends on the previous feedback).

**Resume values** (what ``yield <plan>`` evaluates to):

=============== =====================================================
``Repeat(Send)``   ``None``
``Repeat(Listen)`` tuple of the ``count`` feedbacks, in slot order
``Repeat(SendListen)`` tuple of the ``count`` feedbacks
``ListenUntil``    the matched feedback, or ``None`` if none matched
``Steps``          tuple of feedbacks of the listening slots
                   (``Listen``/``SendListen``), in slot order
=============== =====================================================

**Oracle**: :func:`expand_plans` interprets any plan-yielding protocol
back into per-slot primitive yields, byte-identically (same slots, same
rng consumption).  The reference simulator runs every protocol through
it, so the per-slot path remains the differential-testing oracle for the
engines' phase-compiled path.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Tuple

from repro.sim.actions import Idle, Listen, Send, SendListen
from repro.sim.feedback import is_message

__all__ = [
    "Plan",
    "Repeat",
    "ListenUntil",
    "Steps",
    "timeline",
    "ProtocolError",
    "expand_plans",
]


class ProtocolError(RuntimeError):
    """A protocol yielded an illegal action for the active channel model.

    (Defined here so the plan compiler can raise it without importing the
    engine; :mod:`repro.sim.engine` re-exports it under its historical
    name.)
    """


# The plan classes are deliberately plain __slots__ classes, not
# dataclasses: protocols construct one per phase on the hot path, and a
# frozen-dataclass __init__ (object.__setattr__ per field) costs several
# times a plain attribute store.  Treat instances as immutable anyway.


class Plan:
    """Marker base class for multi-slot phase plans."""

    __slots__ = ()


class Repeat(Plan):
    """Perform ``action`` for ``count`` consecutive slots.

    ``action`` must be a primitive per-slot action.  Repeating a ``Send``
    resumes with ``None``; repeating ``Listen``/``SendListen`` resumes
    with the tuple of all ``count`` feedbacks.
    """

    __slots__ = ("action", "count")

    def __init__(self, action: Any, count: int) -> None:
        self.action = action
        self.count = count

    def __repr__(self) -> str:
        return f"Repeat({self.action!r}, {self.count!r})"

    def __eq__(self, other: Any) -> bool:
        return (
            other.__class__ is Repeat
            and other.action == self.action
            and other.count == self.count
        )

    __hash__ = None  # type: ignore[assignment]


class ListenUntil(Plan):
    """Listen for up to ``slots`` slots, stopping at the first feedback
    that is a message (:func:`~repro.sim.feedback.is_message`) and passes
    ``accept`` (when given).

    Resumes with the matched feedback, or ``None`` when all ``slots``
    slots passed without a match.  With ``pad=True`` the remaining slots
    after a match are idled out, so the plan occupies exactly ``slots``
    slots either way — the SR-communication fixed-frame contract.

    ``accept`` must be a pure function of the feedback: an engine may
    call it before the slot the feedback belongs to is processed (the
    serial engine resolves a padded window whole at its first slot when
    its neighbours' actions are already fixed; see
    :mod:`repro.sim.engine`).
    """

    __slots__ = ("slots", "accept", "pad")

    def __init__(
        self,
        slots: int,
        accept: Optional[Callable[[Any], bool]] = None,
        pad: bool = False,
    ) -> None:
        self.slots = slots
        self.accept = accept
        self.pad = pad

    def __repr__(self) -> str:
        return (
            f"ListenUntil({self.slots!r}, accept={self.accept!r}, "
            f"pad={self.pad!r})"
        )

    def __eq__(self, other: Any) -> bool:
        return (
            other.__class__ is ListenUntil
            and other.slots == self.slots
            and other.accept == self.accept
            and other.pad == self.pad
        )

    __hash__ = None  # type: ignore[assignment]


class Steps(Plan):
    """Perform a fixed sequence of per-slot actions, one per slot.

    ``actions`` may mix ``Send``/``Listen``/``SendListen``/``Idle``.
    Resumes with the tuple of feedbacks received by the listening
    actions (``Listen``/``SendListen``), in slot order.
    """

    __slots__ = ("actions",)

    def __init__(self, actions: Tuple[Any, ...]) -> None:
        self.actions = actions

    def __repr__(self) -> str:
        return f"Steps({self.actions!r})"

    def __eq__(self, other: Any) -> bool:
        return other.__class__ is Steps and other.actions == self.actions

    __hash__ = None  # type: ignore[assignment]


def timeline(events: Iterable[Tuple[int, Any]], length: int) -> Tuple[Any, ...]:
    """The per-slot actions of a fixed ``length``-slot schedule that acts
    only at its ``events``: ``(slot, action)`` pairs in increasing slot
    order, each slot in ``[0, length)``.  Every gap between events, and
    the tail after the last one, becomes one ``Idle``; a schedule with no
    events is a single ``Idle(length)``.  Yield the result as a
    :class:`Steps` plan.

    Raises ValueError, naming the event, when a slot repeats, goes
    backwards or lies outside ``[0, length)``: the schedule would not
    last exactly ``length`` slots, which every fixed frame relies on.
    """
    acts = []
    cursor = 0
    for slot, action in events:
        if slot < cursor or slot >= length:
            problem = (
                f"lies outside the {length}-slot schedule"
                if slot < 0 or slot >= length
                else f"does not come after slot {cursor - 1}"
            )
            raise ValueError(f"timeline event {(slot, action)!r} {problem}")
        if slot > cursor:
            acts.append(Idle(slot - cursor))
        acts.append(action)
        cursor = slot + 1
    if length > cursor:
        acts.append(Idle(length - cursor))
    return tuple(acts)


# --- compiled plan state ---------------------------------------------------
#
# A started plan is a 7-slot mutable list (no attribute lookups in the
# engines' hot loops):
#
#   ps[0] op       active opcode (see OP_*): what the node is doing *now*
#   ps[1] rem      remaining slots in the active run (incl. the slot being
#                  performed), or the *next* action index for OP_STEPS
#   ps[2] payload  message (send/duplex runs), accept (OP_UNTIL),
#                  actions tuple (OP_STEPS)
#   ps[3] acc      collected listen feedbacks
#   ps[4] mode     result mode (RESULT_*)
#   ps[5] value    ListenUntil matched feedback
#   ps[6] pad      ListenUntil pad flag
#
# A plan keeps one opcode from start to finish (a matched ListenUntil
# pads out as OP_PENDING).  The engines inline the within-run
# continuations (send run, listen run, unmatched listen-until, steps) and
# fall back to plan_feedback / plan_resume at the end, so the semantics
# live here once.

OP_PENDING = 0  # nothing active: the next emission finishes the plan
OP_SEND = 1
OP_LISTEN = 2
OP_DUPLEX = 3
OP_UNTIL = 4
OP_STEPS = 5

RESULT_NONE = 0
RESULT_COLLECT = 1
RESULT_UNTIL = 2

_LISTEN = Listen()  # shared: Listen carries no per-slot state

_PRIMITIVES = (Send, Listen, SendListen, Idle)


def exact_action(action):
    """``action`` on its exact primitive class.

    The engines dispatch on the exact classes ``Idle``/``Send``/``Listen``/
    ``SendListen``; an instance of a subclass of one of them is rebuilt on
    its base class.  Raises :class:`ProtocolError` for a non-action.
    """
    if action.__class__ in _PRIMITIVES:
        return action
    if isinstance(action, Idle):
        return Idle(action.duration)
    if isinstance(action, Send):
        return Send(action.message)
    if isinstance(action, Listen):
        return _LISTEN
    if isinstance(action, SendListen):
        return SendListen(action.message)
    raise ProtocolError(f"protocol yielded non-action {action!r}")


def start_plan(plan: Plan):
    """Start ``plan``: returns ``(ps, first_action)`` — the fresh plan
    state and the primitive action for the plan's first slot.

    Raises :class:`ProtocolError` on malformed plans.  One list
    allocation, first action emitted for free (``Repeat`` re-emits the
    protocol's own action object), because protocols start one plan per
    phase on the hot path.
    """
    cls = plan.__class__
    if cls is ListenUntil:
        slots = plan.slots
        if slots.__class__ is not int or slots < 1:
            raise ProtocolError(
                f"ListenUntil slots must be >= 1, got {slots!r}"
            )
        return (
            [OP_UNTIL, slots, plan.accept, None, RESULT_UNTIL, None,
             plan.pad],
            _LISTEN,
        )
    if cls is Repeat:
        count = plan.count
        if count.__class__ is not int or count < 1:
            raise ProtocolError(f"Repeat count must be >= 1, got {count!r}")
        action = plan.action
        acls = action.__class__
        if acls is Send:
            return (
                [OP_SEND, count, action.message, None, RESULT_NONE, None,
                 False],
                action,
            )
        if acls is Listen:
            return (
                [OP_LISTEN, count, None, [], RESULT_COLLECT, None, False],
                action,
            )
        if acls is SendListen:
            return (
                [OP_DUPLEX, count, action.message, [], RESULT_COLLECT,
                 None, False],
                action,
            )
        if acls is Idle:
            total = count * action.duration
            return (
                [OP_PENDING, 0, None, None, RESULT_NONE, None, False],
                action if total == action.duration else Idle(total),
            )
        if isinstance(action, _PRIMITIVES):
            # Action subclass: normalize and retry on the exact class.
            return start_plan(Repeat(exact_action(action), count))
        raise ProtocolError(f"Repeat of non-action {action!r}")
    if cls is Steps or isinstance(plan, Steps):
        actions = tuple(plan.actions)
        if not actions:
            raise ProtocolError("Steps needs at least one action")
        normalize = False
        for action in actions:
            acls = action.__class__
            if (
                acls is not Send
                and acls is not Listen
                and acls is not SendListen
                and acls is not Idle
            ):
                if not isinstance(action, _PRIMITIVES):
                    raise ProtocolError(
                        f"Steps may only contain per-slot actions, "
                        f"got {action!r}"
                    )
                normalize = True
        if normalize:
            # Action subclasses: rebuild on the exact base classes so the
            # engines' exact-class fast paths dispatch them correctly.
            actions = tuple(exact_action(a) for a in actions)
        return (
            [OP_STEPS, 1, actions, [], RESULT_COLLECT, None, False],
            actions[0],
        )
    if isinstance(plan, ListenUntil):
        return start_plan(ListenUntil(plan.slots, plan.accept, plan.pad))
    if isinstance(plan, Repeat):
        return start_plan(Repeat(plan.action, plan.count))
    raise ProtocolError(f"unsupported plan {plan!r}")


def plan_resume(ps: list):
    """Emit the plan's next per-slot action.

    Returns ``(action, None)`` with a primitive action for the next slot,
    or ``(None, result)`` when the plan has finished.  Called at idle
    wake-ups and after :func:`plan_feedback` consumed the run's last
    slot.
    """
    if ps[0] == OP_STEPS:
        acts = ps[2]
        i = ps[1]
        if i < len(acts):
            ps[1] = i + 1
            return acts[i], None
        ps[0] = OP_PENDING
    mode = ps[4]
    if mode == RESULT_COLLECT:
        return None, tuple(ps[3])
    if mode == RESULT_UNTIL:
        return None, ps[5]
    return None, None


def plan_feedback(ps: list, feedback):
    """Consume the feedback of the slot the plan just performed and emit
    the next action.  Same return convention as :func:`plan_resume`.

    This is the complete referee for every opcode; the engines inline
    only the hot within-run continuations and delegate the rest here.
    """
    op = ps[0]
    if op == OP_SEND:
        rem = ps[1]
        if rem > 1:
            ps[1] = rem - 1
            return Send(ps[2]), None
        return plan_resume(ps)
    if op == OP_LISTEN:
        ps[3].append(feedback)
        rem = ps[1]
        if rem > 1:
            ps[1] = rem - 1
            return _LISTEN, None
        return plan_resume(ps)
    if op == OP_UNTIL:
        accept = ps[2]
        if is_message(feedback) and (accept is None or accept(feedback)):
            ps[5] = feedback
            left = ps[1] - 1
            ps[0] = OP_PENDING
            if ps[6] and left > 0:
                return Idle(left), None
            return plan_resume(ps)
        rem = ps[1]
        if rem > 1:
            ps[1] = rem - 1
            return _LISTEN, None
        return plan_resume(ps)
    if op == OP_STEPS:
        acts = ps[2]
        i = ps[1]
        prev = acts[i - 1]
        if isinstance(prev, (Listen, SendListen)):
            ps[3].append(feedback)
        if i < len(acts):
            ps[1] = i + 1
            return acts[i], None
        ps[0] = OP_PENDING
        return plan_resume(ps)
    if op == OP_DUPLEX:
        ps[3].append(feedback)
        rem = ps[1]
        if rem > 1:
            ps[1] = rem - 1
            return SendListen(ps[2]), None
        return plan_resume(ps)
    # OP_PENDING: an idle just elapsed; nothing to consume.
    return plan_resume(ps)


# --- per-slot oracle -------------------------------------------------------


def expand_plans(gen):
    """Interpret a (possibly plan-yielding) protocol generator per slot.

    A driver generator that yields only primitive per-slot actions,
    compiling each yielded plan with the same :func:`start_plan` the
    engine uses and walking it one slot at a time.  By construction this
    is byte-identical to the engine's phase-compiled execution: same
    slots, same energy, same rng consumption — the differential-testing
    oracle for phase-compiled stepping.
    """
    try:
        action = next(gen)
        while True:
            if isinstance(action, Plan):
                ps, act = start_plan(action)
                result = None
                while act is not None:
                    fb = yield act
                    act, result = plan_feedback(ps, fb)
                action = gen.send(result)
            else:
                fb = yield action
                action = gen.send(fb)
    except StopIteration as stop:
        return stop.value
