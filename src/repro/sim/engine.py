"""Lock-step discrete-slot simulator for multi-hop radio networks.

This is the substrate everything else runs on.  Devices are generator-based
protocols; each yielded action occupies one slot (``Send``/``Listen``/
``SendListen``) or several (``Idle(k)``).  The engine keeps an event heap
keyed by the slot at which each device next acts, so long sleeps cost O(1)
work — mirroring the paper's "idle time is free" in both the energy model
and simulator wall time.

Channel semantics are delegated to a :class:`~repro.sim.models.ChannelModel`
(LOCAL, CD, No-CD, CD*, BEEP).  Reception resolution is pluggable
(:mod:`repro.sim.resolution`): ``resolution="bitmask"`` (default) ORs each
transmitter's bit into a per-slot transmit mask and resolves a listener as
``popcount(graph.neighbor_mask(v) & transmit_mask)``; ``"numpy"`` computes
every listener's count in one vectorized sweep over a packed ``uint64``
mask table.  Models whose outcome is a pure function of the contention
count (all five paper models, via
:meth:`~repro.sim.models.ChannelModel.resolve_count`) never materialize
the message list except for the sole sender's message when exactly one
neighbor transmitted; per-transmission models such as
:class:`~repro.sim.models.LossyModel` fall back to the ordered list under
every backend.  The differential tests drive all backends against the
reference oracle.

Protocols may also yield multi-slot *phase plans* (:mod:`repro.sim.plan`:
``Repeat``, ``SendProb``, ``ListenUntil``, ``Steps``).  The engine caches
each node's active plan in a compact state record and steps it with plain
list/dict operations, re-entering the generator only at feedback-relevant
boundaries — a k-slot phase costs O(1) ``gen.send`` calls instead of k.
The reference oracle runs the same protocols through
:func:`repro.sim.plan.expand_plans`, one slot at a time.

Energy metering and trace recording live in :mod:`repro.sim.observers`
hooks, keeping the slot loop free of instrumentation branches — tracing
costs zero when disabled.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.graphs.graph import Graph
from repro.sim.actions import Idle, Listen, Send, SendListen
from repro.sim.config import (
    ExecutionConfig,
    ExecutionConfigError,
    resolve_exec_config,
)
from repro.sim.energy import EnergyReport
from repro.sim.models import ChannelModel
from repro.sim.node import Knowledge, NodeCtx
from repro.sim.plan import (
    OP_LISTEN,
    OP_SEND,
    OP_STEPS,
    OP_UNTIL,
    Plan,
    ProtocolError,
    plan_feedback,
    plan_resume,
    start_plan,
)
from repro.sim.faults import down_feedback, parse_fault_specs
from repro.sim.feedback import BEEP, NOISE, SILENCE
from repro.sim.resolution import RESOLUTION_MODES, create_backend
from repro.sim.observers import (
    EnergyObserver,
    SlotObserver,
    TraceObserver,
)
from repro.sim.trace import Trace
from repro.sim.trial import TrialSetup

__all__ = [
    "Simulator",
    "SimResult",
    "SimulationTimeout",
    "ProtocolError",
    "RESOLUTION_MODES",
]

Protocol = Generator[Any, Any, Any]
ProtocolFactory = Callable[[NodeCtx], Protocol]

_RESUME = object()  # heap payload marker: wake a sleeping generator

#: The default slot budget of a bare Simulator run; batch/broadcast
#: layers apply their own defaults when ``exec_config.time_limit`` is
#: None (see :meth:`repro.sim.config.ExecutionConfig.resolved_time_limit`).
DEFAULT_TIME_LIMIT = 50_000_000


class SimulationTimeout(RuntimeError):
    """The run exceeded its slot budget without all protocols terminating."""


@dataclass
class SimResult:
    """Outcome of one simulation run.

    Attributes:
        outputs: per-node protocol return values.
        energy: per-node :class:`EnergyReport`.
        finish_slot: per-node slot of the node's final action (-1 if the
            protocol returned without ever acting).
        duration: number of slots until the last node finished
            (the paper's time complexity for the run).
        trace: event trace if tracing was enabled, else None.
        gen_entries: how many times the run entered a protocol generator
            (``next``/``send`` calls, including the final StopIteration
            ones).  The stepping-cost metric phase plans minimize.
        soa_reason: why the trial-SoA engine did ("ok") or did not (a
            fallback reason such as "resolution" or "jammer", see
            :func:`repro.sim.trialsoa.soa_fallback_reason`) run this
            trial.  Set on every result of a lock-step
            :func:`~repro.sim.batch.run_trials` batch; None for every
            other execution path.
    """

    outputs: List[Any]
    energy: List[EnergyReport]
    finish_slot: List[int]
    duration: int
    trace: Optional[Trace] = None
    seed: int = 0
    gen_entries: int = 0
    soa_reason: Optional[str] = None

    @property
    def max_energy(self) -> int:
        """Worst-vertex energy — the paper's energy complexity measure."""
        return max(e.total for e in self.energy)

    @property
    def total_energy(self) -> int:
        return sum(e.total for e in self.energy)

    @property
    def mean_energy(self) -> float:
        return self.total_energy / len(self.energy)


class Simulator:
    """Runs one protocol on one graph under one collision model.

    Args:
        exec_config: an :class:`~repro.sim.config.ExecutionConfig`
            describing how the run executes — ``resolution`` backend,
            ``time_limit``, ``record_trace`` and the fault specs.
            Batch-level fields (``lockstep``,
            ``contention_hist``, the per-seed hooks) are rejected here:
            they are consumed by :func:`repro.sim.batch.run_trials` /
            :func:`repro.campaign.cells.run_cells`, and silently
            ignoring them would violate the config's contract.
        observers: extra :class:`~repro.sim.observers.SlotObserver` hooks
            invoked after each active slot is resolved.

    A ``Simulator`` is reusable: :meth:`run` accepts a per-call ``seed``
    so batched trials (:func:`repro.sim.batch.run_trials`) amortize graph
    preprocessing, knowledge, and uid setup across seeds.

    Example:
        >>> from repro.graphs import path_graph
        >>> from repro.sim import Simulator, NO_CD, Send, Listen, Idle
        >>> def proto(ctx):
        ...     if ctx.inputs.get("source"):
        ...         yield Send("hello")
        ...         return "hello"
        ...     fb = yield Listen()
        ...     return fb
        >>> sim = Simulator(path_graph(2), NO_CD, seed=1)
        >>> result = sim.run(proto, inputs={0: {"source": True}})
        >>> result.outputs
        ['hello', 'hello']
    """

    def __init__(
        self,
        graph: Graph,
        model: ChannelModel,
        seed: int = 0,
        *,
        knowledge: Optional[Knowledge] = None,
        uids: Optional[Sequence[int]] = None,
        observers: Sequence[SlotObserver] = (),
        exec_config: Optional[ExecutionConfig] = None,
    ) -> None:
        config = resolve_exec_config(exec_config)
        if config.lockstep:
            raise ExecutionConfigError(
                "Simulator runs one trial at a time; lockstep=True is "
                "consumed by run_trials()/run_cells() — pass the config "
                "there instead"
            )
        if config.contention_hist:
            raise ExecutionConfigError(
                "contention_hist is consumed by run_cells(); on a "
                "bare Simulator attach a ContentionHistogramObserver via "
                "observers= instead"
            )
        if config.observer_factory is not None or config.model_factory is not None:
            raise ExecutionConfigError(
                "observer_factory/model_factory are per-seed hooks consumed "
                "by run_trials(); a Simulator takes concrete observers= and "
                "model arguments"
            )
        for spec in config.field_specs():
            if spec.metadata["runner"] and getattr(config, spec.name) != spec.default:
                raise ExecutionConfigError(
                    f"{spec.name} steers the campaign fabric, not the "
                    f"engine; pass it to run_campaign_fabric() / "
                    f"`campaign run --{spec.name.replace('_', '-')}` instead"
                )
        self.graph = graph
        self.model = model
        self.seed = seed
        # Fault injection (churn/jam/burst_loss) is realized per trial
        # from the trial seed (TrialSetup.faults), so batched trials stay
        # seed-reproducible and sharding-independent.
        self.setup = TrialSetup(
            graph, knowledge, uids,
            fault_plan=parse_fault_specs(config),
        )
        self.time_limit = config.resolved_time_limit(DEFAULT_TIME_LIMIT)
        self.record_trace = config.record_trace
        # Resolves "numpy" to the bitmask backend (with a warning) when
        # numpy is unavailable; the mode itself was validated by the
        # config on construction.
        self.backend = create_backend(config.resolution, graph)
        self.extra_observers = list(observers)

    def run(
        self,
        protocol_factory: ProtocolFactory,
        inputs: Optional[Dict[int, Dict[str, Any]]] = None,
        seed: Optional[int] = None,
    ) -> SimResult:
        """Execute the protocol on every vertex until all terminate.

        Args:
            protocol_factory: called once per vertex with its
                :class:`NodeCtx`; returns the protocol generator.
            inputs: optional per-vertex input dictionaries, keyed by
                vertex index in ``[0, n)``.
            seed: per-run override of the simulator's seed (batched
                trials reuse one simulator across seeds).

        Raises:
            ValueError: if ``inputs`` contains a key that is not a vertex
                index in ``[0, n)``.
            SimulationTimeout: if any protocol is still running at
                ``time_limit`` slots.
            ProtocolError: on full-duplex actions in half-duplex models or
                other illegal yields.
        """
        run_seed = self.seed if seed is None else seed
        model, churn = self.setup.faults(self.model, run_seed)
        return self.run_trial(
            protocol_factory, inputs, run_seed, model, churn,
            self.extra_observers,
        )

    def run_trial(
        self,
        protocol_factory: ProtocolFactory,
        inputs: Optional[Dict[int, Dict[str, Any]]],
        seed: int,
        model: ChannelModel,
        churn: Any,
        extra_observers: Sequence[SlotObserver],
    ) -> SimResult:
        """One run with its channel already realized for ``seed``.

        ``model`` and ``churn`` are the trial's channel and crash
        schedule as :meth:`TrialSetup.faults
        <repro.sim.trial.TrialSetup.faults>` returns them for ``seed``.
        The batch layer draws them once per trial before it picks an
        executor, then hands the same instances to whichever executor
        runs; :meth:`run` is the single-trial form that draws them
        itself.
        """
        graph = self.graph
        down_fb = SILENCE if churn is None else down_feedback(model)
        slot_aware = getattr(model, "slot_aware", False)

        energy = EnergyObserver()
        observers: List[SlotObserver] = [energy]
        trace = Trace() if self.record_trace else None
        if trace is not None:
            observers.append(TraceObserver(trace))
        observers.extend(extra_observers)
        for observer in observers:
            observer.on_run_start(graph.n)

        # Per-node state lives in parallel lists, and the advance/schedule
        # steps are inlined below: this loop runs once per device action
        # across the whole simulation, so attribute lookups, dataclass
        # indirection, and helper-call overhead all cost measurable wall
        # time on sweep workloads.
        #
        # Scheduling invariant: a yielded Send/Listen/SendListen always
        # executes at exactly the next processed slot, so those actions are
        # classified straight into the next slot's sender/listener sets
        # ("the bucket") and never touch the heap.  The heap holds only
        # Idle wake-ups — (wake_slot, vertex, _RESUME) timers — whether the
        # idle came from a yielded Idle or from inside an active plan
        # (``plans[v]`` decides which on wake-up).
        n = graph.n
        ctxs, gens, outputs, first = self.setup.start(
            protocol_factory, seed, inputs
        )
        plans: List[Optional[list]] = [None] * n
        finish_slot = [-1] * n
        entries = n  # every generator was entered once by start()

        heap: List = []
        heappush, heappop = heapq.heappush, heapq.heappop
        full_duplex = model.full_duplex
        model_name = model.name

        bucket_slot = 0
        bucket_senders: Dict[int, Any] = {}
        bucket_listeners: List[int] = []
        bucket_duplexers: Dict[int, Any] = {}

        remaining = len(first)
        for v, action in first:
            while True:
                cls = action.__class__
                if cls is Idle or isinstance(action, Idle):
                    heappush(heap, (action.duration, v, _RESUME))
                elif cls is Send or isinstance(action, Send):
                    bucket_senders[v] = action.message
                elif cls is Listen or isinstance(action, Listen):
                    bucket_listeners.append(v)
                elif cls is SendListen or isinstance(action, SendListen):
                    if not full_duplex:
                        raise ProtocolError(
                            f"SendListen is illegal in the {model_name} model"
                        )
                    bucket_duplexers[v] = action.message
                elif isinstance(action, Plan):
                    plans[v], action = start_plan(action, ctxs[v])
                    continue
                else:
                    raise ProtocolError(
                        f"protocol yielded non-action {action!r}"
                    )
                break

        # Hot-loop locals: resolved once, not per slot.  The backend
        # specializes a per-slot resolver for this model (silence cache,
        # count-path dispatch) so the loop pays one call per active slot.
        resolve_slot = self.backend.slot_resolver(model)
        count_based = model.supports_count
        time_limit = self.time_limit

        duration = 0
        while remaining:
            if bucket_senders or bucket_listeners or bucket_duplexers:
                slot = bucket_slot
                senders = bucket_senders
                listeners = bucket_listeners
                duplexers = bucket_duplexers
            else:
                slot = heap[0][0]
                senders, listeners, duplexers = {}, [], {}
            bucket_senders, bucket_listeners, bucket_duplexers = {}, [], {}
            if slot > time_limit:
                raise SimulationTimeout(
                    f"simulation exceeded {time_limit} slots "
                    f"({remaining} protocols still running, seed {seed})"
                )

            # Wake every sleeper due at this slot; a resumed generator (or
            # plan) may immediately act, joining the slot it woke in.
            while heap and heap[0][0] == slot:
                _, v, _ = heappop(heap)
                ps = plans[v]
                result = None
                if ps is not None:
                    action, result = plan_resume(ps)
                    if action is None:
                        plans[v] = None
                if ps is None or action is None:
                    ctxs[v].time = slot
                    entries += 1
                    try:
                        action = gens[v].send(result)
                    except StopIteration as stop:
                        outputs[v] = stop.value
                        finish_slot[v] = slot - 1
                        remaining -= 1
                        if duration < slot:
                            duration = slot
                        continue
                while True:
                    cls = action.__class__
                    if cls is Idle or isinstance(action, Idle):
                        heappush(heap, (slot + action.duration, v, _RESUME))
                    elif cls is Send or isinstance(action, Send):
                        senders[v] = action.message
                    elif cls is Listen or isinstance(action, Listen):
                        listeners.append(v)
                    elif cls is SendListen or isinstance(action, SendListen):
                        if not full_duplex:
                            raise ProtocolError(
                                f"SendListen is illegal in the {model_name} model"
                            )
                        duplexers[v] = action.message
                    elif isinstance(action, Plan):
                        plans[v], action = start_plan(action, ctxs[v])
                        continue
                    else:
                        raise ProtocolError(
                            f"protocol yielded non-action {action!r}"
                        )
                    break

            if not (senders or listeners or duplexers):
                continue

            if duplexers:
                transmitting = dict(senders)
                transmitting.update(duplexers)
                receivers = listeners + list(duplexers)
            else:
                transmitting = senders
                receivers = listeners
            if not count_based:
                # Stateful models (LossyModel) consume channel randomness
                # per reception: resolve in ascending vertex order, exactly
                # like the reference oracle's single pass.  Count-based
                # models are stateless, so their order cannot matter.
                receivers = sorted(receivers)

            # Resolve receptions.  Churn filters crashed nodes out of
            # the air (their sends vanish) and out of the live receiver
            # set (their listens hear the model's empty-reception value
            # below); the clean path aliases the unfiltered sets,
            # costing nothing.
            feedbacks: Dict[int, Any] = {}
            if churn is None:
                air = transmitting
                live = receivers
            else:
                down = churn.down
                air = {
                    v: m for v, m in transmitting.items()
                    if not down(v, slot)
                }
                live = [v for v in receivers if not down(v, slot)]
            if slot_aware:
                model.begin_slot(slot, len(air))
            resolve_slot(air, live, feedbacks)
            if live is not receivers:
                for v in receivers:
                    if v not in feedbacks:
                        feedbacks[v] = down_fb
            for v in senders:
                feedbacks[v] = None

            for observer in observers:
                observer.on_slot(slot, senders, listeners, duplexers, feedbacks)

            # Advance every actor; their next action starts at slot+1 and,
            # unless it sleeps, is classified straight into the bucket.
            # Nodes inside an active plan are stepped with plain list/dict
            # operations (the inline fast paths below) and only re-enter
            # their generator at plan boundaries — that is the whole point
            # of phase plans, so this block must stay call-free on the
            # within-run continuations.
            next_slot = slot + 1
            bucket_slot = next_slot
            if duration < next_slot:
                duration = next_slot
            for v in receivers if not senders else list(senders) + receivers:
                ps = plans[v]
                if ps is not None:
                    op = ps[0]
                    if op == OP_SEND:  # mid send-run
                        rem = ps[1]
                        if rem > 1:
                            ps[1] = rem - 1
                            bucket_senders[v] = ps[2]
                            continue
                        action, result = plan_feedback(ps, None)
                    elif op == OP_LISTEN:  # mid listen-run
                        ps[3].append(feedbacks[v])
                        rem = ps[1]
                        if rem > 1:
                            ps[1] = rem - 1
                            bucket_listeners.append(v)
                            continue
                        action, result = plan_resume(ps)
                    elif op == OP_UNTIL:
                        fb = feedbacks[v]
                        if (
                            fb is None
                            or fb is SILENCE
                            or fb is NOISE
                            or fb is BEEP
                            or (fb.__class__ is tuple and not fb)
                        ):
                            # Definite non-message: keep listening.
                            rem = ps[1]
                            if rem > 1:
                                ps[1] = rem - 1
                                bucket_listeners.append(v)
                                continue
                        action, result = plan_feedback(ps, fb)
                    elif op == OP_STEPS:
                        acts = ps[2]
                        i = ps[1]
                        pcls = acts[i - 1].__class__
                        if pcls is Listen or pcls is SendListen:
                            ps[3].append(feedbacks[v])
                        if i < len(acts):
                            act = acts[i]
                            ps[1] = i + 1
                            acls = act.__class__
                            if acls is Send:
                                bucket_senders[v] = act.message
                                continue
                            if acls is Listen:
                                bucket_listeners.append(v)
                                continue
                            if acls is Idle:
                                heappush(
                                    heap,
                                    (next_slot + act.duration, v, _RESUME),
                                )
                                continue
                            if not full_duplex:
                                raise ProtocolError(
                                    f"SendListen is illegal in the "
                                    f"{model_name} model"
                                )
                            bucket_duplexers[v] = act.message
                            continue
                        action, result = plan_resume(ps)
                    else:  # duplex runs and other cold opcodes
                        action, result = plan_feedback(ps, feedbacks[v])
                    if action is None:
                        plans[v] = None
                        ctxs[v].time = next_slot
                        entries += 1
                        try:
                            action = gens[v].send(result)
                        except StopIteration as stop:
                            outputs[v] = stop.value
                            finish_slot[v] = slot
                            remaining -= 1
                            continue
                else:
                    ctxs[v].time = next_slot
                    entries += 1
                    try:
                        action = gens[v].send(feedbacks[v])
                    except StopIteration as stop:
                        outputs[v] = stop.value
                        finish_slot[v] = slot
                        remaining -= 1
                        continue
                while True:
                    cls = action.__class__
                    if cls is Idle or isinstance(action, Idle):
                        heappush(heap, (next_slot + action.duration, v, _RESUME))
                    elif cls is Send or isinstance(action, Send):
                        bucket_senders[v] = action.message
                    elif cls is Listen or isinstance(action, Listen):
                        bucket_listeners.append(v)
                    elif cls is SendListen or isinstance(action, SendListen):
                        if not full_duplex:
                            raise ProtocolError(
                                f"SendListen is illegal in the {model_name} model"
                            )
                        bucket_duplexers[v] = action.message
                    elif isinstance(action, Plan):
                        plans[v], action = start_plan(action, ctxs[v])
                        continue
                    else:
                        raise ProtocolError(
                            f"protocol yielded non-action {action!r}"
                        )
                    break

        return SimResult(
            outputs=outputs,
            energy=energy.reports(),
            finish_slot=finish_slot,
            duration=duration,
            trace=trace,
            seed=seed,
            gen_entries=entries,
        )
