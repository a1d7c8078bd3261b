"""Execution traces for debugging and for rendering Figure 1.

Tracing is off by default (it costs memory proportional to the number of
active slots); experiments that draw timelines enable it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List

__all__ = ["TraceEvent", "Trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One active slot of one device."""

    slot: int
    node: int
    kind: str  # "send", "listen", or "duplex"
    message: Any = None  # outgoing message for send/duplex
    feedback: Any = None  # what a listener heard


class Trace:
    """Append-only list of :class:`TraceEvent` with simple query helpers."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self._events.append(event)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def events_for(self, node: int) -> List[TraceEvent]:
        return [e for e in self._events if e.node == node]

    def sends(self) -> List[TraceEvent]:
        return [e for e in self._events if e.kind in ("send", "duplex")]

    def receptions(self) -> List[TraceEvent]:
        from repro.sim.feedback import is_message

        return [
            e
            for e in self._events
            if e.kind in ("listen", "duplex") and is_message(e.feedback)
        ]

    def last_slot(self) -> int:
        return max((e.slot for e in self._events), default=-1)
