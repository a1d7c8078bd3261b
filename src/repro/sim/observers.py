"""Slot observers: energy metering and trace recording as engine hooks.

The engine's inner loop stays pure channel semantics — collect actions,
resolve receptions, advance generators.  Everything that merely *watches*
a slot (charging energy meters, appending trace events, custom
instrumentation) is a :class:`SlotObserver` invoked once per active slot.
Observers the run doesn't need are simply not installed, so e.g. tracing
costs nothing when disabled instead of an ``if trace`` branch per slot.

Observer call order is the installation order; the engine always installs
:class:`EnergyObserver` first (energy is part of :class:`SimResult`), then
:class:`TraceObserver` when tracing is on, then any user observers.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.sim.energy import EnergyReport
from repro.sim.resolution import _popcount
from repro.sim.trace import Trace, TraceEvent

__all__ = [
    "SlotObserver",
    "EnergyObserver",
    "TraceObserver",
    "ContentionHistogramObserver",
]


class SlotObserver:
    """Base class: sees every active slot of a run.

    An active slot is one in which some device sends, listens or does
    both.  A trial with any observer besides :class:`EnergyObserver`
    posts no plans, sends or listens (see :mod:`repro.sim.engine`), so
    its observers see every active slot with all of its senders and
    listeners.

    ``on_slot`` receives the slot number and the slot's complete activity:
    ``senders``/``duplexers`` map vertex -> outgoing message, ``listeners``
    is the list of listening vertices, and ``feedbacks`` maps every active
    vertex to what it heard (None for pure senders).  Iteration order of
    the collections is unspecified (the engine classifies actions as
    generators yield them); observers that need a canonical order sort,
    as :class:`TraceObserver` does.

    A lock-step batch whose trials carry observers runs on the serial
    engine (see :func:`repro.sim.trialsoa.soa_fallback_reason`), so
    ``on_slot`` is the one entry point.
    """

    def on_run_start(self, n: int) -> None:
        """Called once before the first slot; ``n`` is the vertex count."""

    def on_slot(
        self,
        slot: int,
        senders: Dict[int, Any],
        listeners: List[int],
        duplexers: Dict[int, Any],
        feedbacks: Dict[int, Any],
    ) -> None:
        """Called once per slot in which at least one device was active."""


class EnergyObserver(SlotObserver):
    """Owns the per-node energy counters and charges them.

    The paper's energy measure — one unit per slot spent sending and/or
    listening (Section 1) — lives here, out of the engine's hot loop.
    Counters are flat integer arrays rather than :class:`EnergyMeter`
    objects: charging is the single hottest observer operation (every
    active device, every active slot), and ``listens[v] += 1`` beats a
    method call per charge.  :meth:`reports` snapshots the arrays into
    the same :class:`EnergyReport` records the meters produce.

    It sees only the slots the engine processes, and in them only the
    devices that step: a posted plan's sends (see :mod:`repro.sim.engine`)
    arrive as one :meth:`charge_sends` call when the plan starts, a
    listen window resolved whole arrives as one :meth:`charge_listens`
    call at its first slot, and the slots that hold nothing but posted
    sends and such windows never reach :meth:`on_slot`.  The totals
    equal per-slot metering either way.
    """

    def __init__(self) -> None:
        self.sends: List[int] = []
        self.listens: List[int] = []
        self.duplex: List[int] = []
        self.last_active: List[int] = []

    def on_run_start(self, n: int) -> None:
        self.sends = [0] * n
        self.listens = [0] * n
        self.duplex = [0] * n
        self.last_active = [-1] * n

    def on_slot(self, slot, senders, listeners, duplexers, feedbacks) -> None:
        last = self.last_active
        counts = self.sends
        for v in senders:
            counts[v] += 1
            last[v] = slot
        counts = self.listens
        for v in listeners:
            counts[v] += 1
            last[v] = slot
        counts = self.duplex
        for v in duplexers:
            counts[v] += 1
            last[v] = slot

    def charge_sends(self, v: int, count: int, last: int) -> None:
        """Charge ``v`` for ``count`` sends at once, the last at slot
        ``last``: a posted plan's whole run, charged as it starts."""
        self.sends[v] += count
        self.last_active[v] = last

    def charge_listens(self, v: int, count: int, last: int) -> None:
        """Charge ``v`` for ``count`` listens at once, the last at slot
        ``last``: a posted listen's window up to the slot it heard an
        accepted message in, charged at the window's first slot."""
        self.listens[v] += count
        self.last_active[v] = last

    def reports(self) -> List[EnergyReport]:
        return [
            EnergyReport(
                sends=s,
                listens=l,
                duplex=d,
                total=s + l + d,
                last_active_slot=a,
            )
            for s, l, d, a in zip(
                self.sends, self.listens, self.duplex, self.last_active
            )
        ]


class ContentionHistogramObserver(SlotObserver):
    """Per-slot channel-load and collision analytics.

    Rides along as an opt-in observer (``repro table1 --contention-hist``,
    ``campaign ... --contention-hist``, or the ``contention_hist`` cell
    option) and costs nothing when not installed.  Per active slot it
    records

    * the **channel load** — how many devices transmitted — into a
      histogram, and
    * every reception's contention count *k* (via the graph's neighbor
      bitmasks), bucketed into silent (k = 0), clean (k = 1), and
      collided (k >= 2) receptions.

    Model-independent by design: it counts transmissions on the air, not
    what the model turned them into, so the same numbers overlay any
    channel model (Figure 1 overlays, model-mismatch studies): erasures
    are the model's doing.  Under churn it likewise counts *attempted*
    (pre-churn) transmissions and receptions, down radios included.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self._masks = graph.neighbor_masks()
        self.load_histogram: Dict[int, int] = {}
        self.active_slots = 0
        self.transmissions = 0
        self.silent_receptions = 0
        self.clean_receptions = 0
        self.collisions = 0

    def on_run_start(self, n: int) -> None:
        self.load_histogram = {}
        self.active_slots = 0
        self.transmissions = 0
        self.silent_receptions = 0
        self.clean_receptions = 0
        self.collisions = 0

    def on_slot(self, slot, senders, listeners, duplexers, feedbacks) -> None:
        load = len(senders) + len(duplexers)
        self.active_slots += 1
        self.transmissions += load
        histogram = self.load_histogram
        histogram[load] = histogram.get(load, 0) + 1
        receivers = (
            list(listeners) + list(duplexers) if duplexers else listeners
        )
        if not load:
            self.silent_receptions += len(receivers)
            return
        transmit_mask = 0
        for v in senders:
            transmit_mask |= 1 << v
        for v in duplexers:
            transmit_mask |= 1 << v
        masks = self._masks
        for v in receivers:
            k = _popcount(masks[v] & transmit_mask)
            if k == 0:
                self.silent_receptions += 1
            elif k == 1:
                self.clean_receptions += 1
            else:
                self.collisions += 1

    @property
    def receptions(self) -> int:
        return self.silent_receptions + self.clean_receptions + self.collisions

    def summary(self) -> Dict[str, float]:
        """Flat float metrics, ready to merge into a cell's ``extras``."""
        receptions = self.receptions
        return {
            "active_slots": float(self.active_slots),
            "mean_load": (
                self.transmissions / self.active_slots
                if self.active_slots else 0.0
            ),
            "max_load": float(max(self.load_histogram, default=0)),
            "collisions": float(self.collisions),
            "clean_receptions": float(self.clean_receptions),
            "collision_rate": (
                self.collisions / receptions if receptions else 0.0
            ),
        }


class TraceObserver(SlotObserver):
    """Appends one :class:`TraceEvent` per active device per slot.

    Event order within a slot is senders, then listeners, then duplexers
    (each ascending by vertex) — the order Figure 1 and the lower-bound
    trace consumers have always seen.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace

    def on_slot(self, slot, senders, listeners, duplexers, feedbacks) -> None:
        record = self.trace.record
        for v in sorted(senders):
            record(TraceEvent(slot, v, "send", senders[v]))
        for v in sorted(listeners):
            record(TraceEvent(slot, v, "listen", None, feedbacks[v]))
        for v in sorted(duplexers):
            record(TraceEvent(slot, v, "duplex", duplexers[v], feedbacks[v]))
