"""The Theorem 1 hard instance: Omega(log n) energy on a path.

Theorem 1 proves that on an n-vertex path, *any* randomized LOCAL
Broadcast algorithm has, with probability 1/2, some vertex spending at
least (1/5) log n energy before it receives the message.  We cannot
enumerate all algorithms, but we can (a) measure the quantity the theorem
bounds — the worst, over vertices, energy spent strictly before receiving
the payload — on our algorithms' runs, and (b) check it indeed grows
logarithmically, pinning both sides: the path algorithm of Section 8 is
O(log n) in expectation, so the measured curve is sandwiched into
Theta(log n).

:func:`energy_before_reception` measures it on a traced run;
:class:`PreReceptionObserver` measures the same quantity while the run
executes, with no trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.broadcast.base import BroadcastOutcome
from repro.sim.feedback import is_message
from repro.sim.observers import SlotObserver

__all__ = [
    "PreReceptionEnergy",
    "PreReceptionObserver",
    "energy_before_reception",
]


@dataclass(frozen=True)
class PreReceptionEnergy:
    """Per-vertex energy spent before first learning the payload."""

    per_vertex: List[int]
    worst: int
    worst_vertex: int


def _payload_arrival_slots(outcome: BroadcastOutcome) -> Dict[int, int]:
    """First slot each vertex heard the payload (source: slot -1)."""
    trace = outcome.sim.trace
    if trace is None:
        raise ValueError("energy_before_reception needs record_trace=True")
    payload = outcome.payload
    arrival: Dict[int, int] = {}

    def mentions_payload(msg) -> bool:
        if msg == payload:
            return True
        if isinstance(msg, tuple):
            return any(mentions_payload(part) for part in msg)
        if isinstance(msg, (list, dict)):
            items = msg.values() if isinstance(msg, dict) else msg
            return any(mentions_payload(part) for part in items)
        return False

    for event in trace:
        if event.kind in ("listen", "duplex") and is_message(event.feedback):
            if mentions_payload(event.feedback) and event.node not in arrival:
                arrival[event.node] = event.slot
    return arrival


def energy_before_reception(
    outcome: BroadcastOutcome, source: int = 0
) -> PreReceptionEnergy:
    """Measure Theorem 1's quantity on a traced broadcast run."""
    trace = outcome.sim.trace
    arrival = _payload_arrival_slots(outcome)
    n = len(outcome.sim.outputs)
    spent = [0] * n
    for event in trace:
        cutoff: Optional[int] = arrival.get(event.node)
        if event.node == source:
            cutoff = -1
        if cutoff is None or event.slot < cutoff:
            spent[event.node] += 1
    worst_vertex = max(range(n), key=lambda v: spent[v])
    return PreReceptionEnergy(
        per_vertex=spent, worst=spent[worst_vertex], worst_vertex=worst_vertex
    )


def _mentions_payload(feedback: Any, payload: Any) -> bool:
    """The trace reference's payload test, walked with a stack: does
    ``payload`` equal ``feedback`` or anything nested in its tuples,
    lists and dict values?  LOCAL feedback nests tuples several levels
    deep, and a recursive call per part dominated the scan."""
    stack = [feedback]
    pop, push = stack.pop, stack.extend
    while stack:
        msg = pop()
        if msg == payload:
            return True
        if isinstance(msg, (tuple, list)):
            push(msg)
        elif isinstance(msg, dict):
            push(msg.values())
    return False


class PreReceptionObserver(SlotObserver):
    """Theorem 1's quantity, counted slot by slot instead of from a trace.

    Each vertex is charged for its active slots until its first listen or
    duplex whose feedback mentions ``payload``; that slot is not charged,
    and the ``source`` is never charged.  On the same run this equals
    :func:`energy_before_reception` field by field.  ``payload`` must be
    the run's payload (``"m"`` is :func:`repro.broadcast.run_broadcast`'s
    default).
    """

    def __init__(self, source: int = 0, payload: Any = "m") -> None:
        self.source = source
        self.payload = payload
        self.spent: List[int] = []
        self.informed: List[bool] = []

    def on_run_start(self, n: int) -> None:
        self.spent = [0] * n
        self.informed = [False] * n
        self.informed[self.source] = True

    def on_slot(self, slot, senders, listeners, duplexers, feedbacks) -> None:
        spent = self.spent
        informed = self.informed
        for v in senders:
            if not informed[v]:
                spent[v] += 1
        payload = self.payload
        for receivers in (listeners, duplexers):
            for v in receivers:
                if informed[v]:
                    continue
                feedback = feedbacks[v]
                if is_message(feedback) and _mentions_payload(feedback, payload):
                    informed[v] = True
                else:
                    spent[v] += 1

    def report(self, outcome: BroadcastOutcome) -> PreReceptionEnergy:
        """The :class:`PreReceptionEnergy` of the run just observed."""
        if outcome.payload != self.payload:
            raise ValueError(
                f"observed payload {self.payload!r}, but the run broadcast "
                f"{outcome.payload!r}"
            )
        spent = list(self.spent)
        worst_vertex = max(range(len(spent)), key=lambda v: spent[v])
        return PreReceptionEnergy(
            per_vertex=spent, worst=spent[worst_vertex], worst_vertex=worst_vertex
        )

    def extras(self, outcome: BroadcastOutcome) -> Dict[str, float]:
        """Cell extras: the worst vertex's energy against (1/5) log2 n."""
        worst = float(self.report(outcome).worst)
        lower_bound = math.log2(len(self.spent)) / 5
        return {
            "worst_pre_reception": worst,
            "lower_bound": lower_bound,
            # Aggregates conjunctively (see aggregate_cells): a single
            # seed below the Theorem 1 bound flags the whole size.
            "lb_ok": 1.0 if worst >= lower_bound else 0.0,
        }
