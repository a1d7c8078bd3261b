"""Reference (oracle) simulator: naive slot-by-slot execution.

This implementation advances *every* slot explicitly and keeps no event
heap — trivially correct, O(total slots x n) slow.  It exists purely as a
differential-testing oracle for :class:`repro.sim.engine.Simulator`: both
must produce identical outputs, energy meters, and durations on any
protocol (tests/test_reference_equivalence.py drives them with random
protocols).  Keep the semantics here boring and obviously right.

Phase plans (:mod:`repro.sim.plan`) are supported by wrapping every
protocol in :func:`~repro.sim.plan.expand_plans`, which interprets plans
back into per-slot primitive yields — so the oracle never needs (or has)
a slots-at-a-time fast path of its own.  Trials start through the same
:class:`~repro.sim.trial.TrialSetup` as the engines, faults included, so
the oracle sees identical node contexts and fault realizations.

With ``record_trace=True`` the oracle records its own trace, one
:class:`~repro.sim.trace.TraceEvent` per active device per slot in
:class:`~repro.sim.observers.TraceObserver`'s order, so differentials
compare the engines' traces with it too.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.graphs.graph import Graph
from repro.sim.actions import Idle, Listen, Send, SendListen
from repro.sim.energy import EnergyMeter
from repro.sim.engine import ProtocolError, SimResult, timeout_error
from repro.sim.faults import FaultPlan, down_feedback
from repro.sim.feedback import SILENCE
from repro.sim.models import ChannelModel
from repro.sim.node import Knowledge
from repro.sim.plan import expand_plans
from repro.sim.trace import Trace, TraceEvent
from repro.sim.trial import TrialSetup

__all__ = ["ReferenceSimulator"]


class _Node:
    def __init__(self, gen, ctx) -> None:
        self.gen = gen
        self.ctx = ctx
        self.meter = EnergyMeter()
        self.done = False
        self.output: Any = None
        self.finish_slot = -1
        self.action = None
        self.idle_left = 0
        self.entries = 1  # TrialSetup.start entered the generator once

    def advance(self, feedback, now: int) -> None:
        self.ctx.time = now
        self.entries += 1
        try:
            self.action = self.gen.send(feedback)
        except StopIteration as stop:
            self.done = True
            self.output = stop.value
            self.finish_slot = now - 1
            self.action = None


class ReferenceSimulator:
    """Drop-in (slow) replacement for :class:`Simulator`.

    ``faults`` is the run's parsed fault plan (see
    :func:`repro.sim.faults.parse_fault_specs`), realized for ``seed``
    exactly as the engines realize it.  ``record_trace`` records the
    run's trace, as ``ExecutionConfig.record_trace`` does on the engines.
    """

    def __init__(
        self,
        graph: Graph,
        model: ChannelModel,
        seed: int = 0,
        time_limit: int = 1_000_000,
        knowledge: Optional[Knowledge] = None,
        uids: Optional[Sequence[int]] = None,
        faults: Optional[FaultPlan] = None,
        record_trace: bool = False,
    ) -> None:
        self.graph = graph
        self.model = model
        self.seed = seed
        self.time_limit = time_limit
        self.record_trace = record_trace
        self.setup = TrialSetup(graph, knowledge, uids, fault_plan=faults)

    def run(self, protocol_factory, inputs=None) -> SimResult:
        model, churn = self.setup.faults(self.model, self.seed)
        ctxs, gens, outputs, first = self.setup.start(
            lambda ctx: expand_plans(protocol_factory(ctx)),
            self.seed, inputs,
        )
        nodes = [_Node(gen, ctx) for gen, ctx in zip(gens, ctxs)]
        started = dict(first)
        for v, node in enumerate(nodes):
            if v in started:
                node.action = started[v]
            else:
                node.done = True
                node.output = outputs[v]

        trace = Trace() if self.record_trace else None
        slot = 0
        duration = 0
        down_fb = SILENCE if churn is None else down_feedback(model)
        while any(not node.done for node in nodes):
            if slot > self.time_limit:
                raise timeout_error(
                    self.time_limit,
                    sum(not node.done for node in nodes),
                    self.seed,
                )
            # Begin idle periods.
            for node in nodes:
                if node.done or node.idle_left:
                    continue
                if isinstance(node.action, Idle):
                    node.idle_left = node.action.duration
                elif isinstance(node.action, SendListen):
                    if not model.full_duplex:
                        raise ProtocolError(
                            f"SendListen is illegal in the {model.name} model"
                        )
                elif not isinstance(node.action, (Send, Listen)):
                    raise ProtocolError(
                        f"protocol yielded non-action {node.action!r}"
                    )

            transmitting: Dict[int, Any] = {}
            for v, node in enumerate(nodes):
                if node.done or node.idle_left:
                    continue
                if isinstance(node.action, (Send, SendListen)):
                    transmitting[v] = node.action.message

            # Churn: a down node's transmission never reaches the air
            # (and, below, its listens hear forced silence).  Its plan
            # and meters advance normally — a crash is a radio outage,
            # not an execution freeze.
            if churn is None:
                air = transmitting
            else:
                air = {
                    v: m for v, m in transmitting.items()
                    if not churn.down(v, slot)
                }
            if getattr(model, "slot_aware", False):
                model.begin_slot(slot, len(air))

            # Resolve and advance.
            acted = [] if trace is not None else None
            for v, node in enumerate(nodes):
                if node.done:
                    continue
                if node.idle_left:
                    node.idle_left -= 1
                    if node.idle_left == 0:
                        node.advance(None, slot + 1)
                        if node.done:
                            # Match the engine: an idle-then-return
                            # protocol extends the run to its wake slot.
                            duration = max(duration, slot + 1)
                    continue
                action = node.action
                if isinstance(action, Send):
                    node.meter.charge_send(slot)
                    feedback = None
                else:
                    if churn is not None and churn.down(v, slot):
                        feedback = down_fb
                    else:
                        heard = [
                            air[w]
                            for w in self.graph.neighbors(v)
                            if w in air
                        ]
                        feedback = model.resolve(heard)
                    if isinstance(action, Listen):
                        node.meter.charge_listen(slot)
                    else:
                        node.meter.charge_duplex(slot)
                duration = max(duration, slot + 1)
                if acted is not None:
                    acted.append((v, action, feedback))
                node.advance(feedback, slot + 1)
            if acted:
                _record_slot(trace, slot, acted)
            slot += 1

        return SimResult(
            outputs=[node.output for node in nodes],
            energy=[node.meter.snapshot() for node in nodes],
            finish_slot=[node.finish_slot for node in nodes],
            duration=duration,
            trace=trace,
            seed=self.seed,
            gen_entries=sum(node.entries for node in nodes),
        )


def _record_slot(trace: Trace, slot: int, acted) -> None:
    """Record one slot's ``(vertex, action, feedback)`` triples, listed
    in ascending vertex order: senders, then listeners, then duplexers,
    as :class:`~repro.sim.observers.TraceObserver` records them."""
    for v, action, _ in acted:
        if isinstance(action, Send):
            trace.record(TraceEvent(slot, v, "send", action.message))
    for v, action, feedback in acted:
        if isinstance(action, Listen):
            trace.record(TraceEvent(slot, v, "listen", None, feedback))
    for v, action, feedback in acted:
        if isinstance(action, SendListen):
            trace.record(
                TraceEvent(slot, v, "duplex", action.message, feedback)
            )
