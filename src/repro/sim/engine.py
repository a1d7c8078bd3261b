"""Lock-step discrete-slot simulator for multi-hop radio networks.

This is the substrate everything else runs on.  Devices are generator-based
protocols; each yielded action occupies one slot (``Send``/``Listen``/
``SendListen``) or several (``Idle(k)``).  The engine keeps an event heap
keyed by the slot at which each sleeping device next acts — where its
idle ends, or where its posted plan ends (below) — so long sleeps cost
O(1) work, mirroring the paper's "idle time is free" in both the energy
model and simulator wall time.

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
``Repeat``, ``ListenUntil``, ``Steps``).  The engine caches
each node's active plan in a compact state record and steps it with plain
list/dict operations, re-entering the generator only at feedback-relevant
boundaries — a k-slot phase costs O(1) ``gen.send`` calls instead of k.
The reference oracle runs the same protocols through
:func:`repro.sim.plan.expand_plans`, one slot at a time.

**Posted sends.**  A ``Steps`` plan whose actions are all ``Send`` or
``Idle`` (an SR sender's frame) needs no feedback, so when the energy
meter is a trial's only observer the engine *posts* it instead of
stepping it: its sends go onto a per-trial calendar (slot -> {vertex:
message}), the meter charges them in one call
(:meth:`~repro.sim.observers.EnergyObserver.charge_sends`), and the node
sleeps on the heap until the plan ends, where it resumes exactly as a
stepped plan would.  Posting reads the actions once, laying each send as
it checks it; a plan it turns down half-way (say, at a ``Listen``) is
stepped from the same slot, and that sends the same messages in the
slots already laid, so their rows change nothing.  A slot the engine
processes anyway — someone listens there, or another node acts — pops
its calendar row into the air before churn filtering, ``begin_slot``
and resolution, so listeners, lossy draws and the reactive jammer see
every transmitter.  A slot that holds only posted sends is never
processed: a send nobody hears costs nothing per slot.

**Posted listens.**  A padded ``ListenUntil`` (an SR receiver's frame)
is resolved whole at its first slot when every neighbour is fixed
through the window's end: finished, asleep until at least then (in an
idle, or in a posted plan whose sends are on the calendar), or itself
in a padded ``ListenUntil`` that lasts at least as long.  Its receptions
are then the calendar rows', read with the slot resolver up to the first
message ``accept`` takes; the meter charges those listens in one
call (:meth:`~repro.sim.observers.EnergyObserver.charge_listens`), and
the node sleeps until the window ends, where it resumes with the value
the stepped plan returns.  The check runs when the first slot is
processed, after its wake-ups, since neighbours starting the same frame
there may be classified after the listener; it reads each node's next
wake-up slot, kept at every heap push and finish.  A slot left with only
such listeners is not resolved.  Listens are posted only on count
models with no slot-aware wrapper and no churn, where a reception is a
function of its slot's transmitters alone.

Every other plan, ``Repeat(Send, k)`` included, is stepped, and so is
every plan of a trial with any other observer (a trace, a row
measurement, a contention histogram), because those observers read
every slot's senders and listeners.

Energy metering and trace recording live in :mod:`repro.sim.observers`
hooks, keeping the slot loop free of instrumentation branches — tracing
costs zero when disabled.

**Slot budget.**  As in the oracle, a run may finish in slot
``time_limit + 1`` (a node whose idle or posted plan ends there wakes
and returns); the engine raises :class:`SimulationTimeout` once the next
slot lies beyond that, or when a protocol is still running after that
slot's wake-ups.
"""

from __future__ import annotations

import heapq
import sys
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
    OP_PENDING,
    OP_SEND,
    OP_STEPS,
    OP_UNTIL,
    RESULT_COLLECT,
    ListenUntil,
    Plan,
    ProtocolError,
    Steps,
    exact_action,
    plan_feedback,
    plan_resume,
    start_plan,
)
from repro.sim.faults import down_feedback, parse_fault_specs
from repro.sim.feedback import BEEP, NOISE, SILENCE, is_message
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

# post() prunes the calendar when it holds more rows than this plus
# twice what it kept at the last prune.  Rows are dicts, and rows that
# outlive a young collection push the garbage collector into extra
# collections, so the bound is small: at 4096, configs/run_all.json's
# blocks ran 635 young collections instead of the stepped engine's 348.
_CALENDAR_ROWS = 64

# The plan state a posted plan leaves behind while its node sleeps: on
# wake-up plan_resume() ends it with the value the stepped plan returns,
# the () of a Steps that never listened.  Finished states are only read,
# so every posted node shares one tuple.
_POSTED_STEPS = (OP_PENDING, 0, None, (), RESULT_COLLECT, None, False)

# The wake-up slot of a finished node: later than any window's end.
_NEVER = sys.maxsize

#: The default slot budget of a bare Simulator run; batch/broadcast
#: layers apply their own defaults when ``exec_config.time_limit`` is
#: None (see :meth:`repro.sim.config.ExecutionConfig.resolved_time_limit`).
DEFAULT_TIME_LIMIT = 50_000_000


class SimulationTimeout(RuntimeError):
    """The run exceeded its slot budget without all protocols terminating."""


def timeout_error(
    time_limit: int, remaining: int, seed: int
) -> SimulationTimeout:
    """The :class:`SimulationTimeout` every executor raises for a run
    with ``remaining`` protocols still running past ``time_limit``."""
    return SimulationTimeout(
        f"simulation exceeded {time_limit} slots "
        f"({remaining} protocols still running, seed {seed})"
    )


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
            ones).  It stands for stepping cost where an entry resumes a
            deep ``yield from`` chain (an SR frame under a cast under a
            broadcast), which phase plans cut.  It does not price a
            shallow generator: there a second entry costs less than
            starting and resuming a plan, so Algorithm 1 yields its idle
            gap and its action as two entries.
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
            SimulationTimeout: if any protocol is still running after
                slot ``time_limit + 1``'s wake-ups.
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
        # wake-ups — (wake_slot, vertex, _RESUME) timers — at the end of
        # an idle, whether yielded or inside an active plan, or at the end
        # of a posted plan (``plans[v]`` decides which on wake-up).
        n = graph.n
        ctxs, gens, outputs, first = self.setup.start(
            protocol_factory, seed, inputs
        )
        plans: List[Optional[Sequence]] = [None] * n
        finish_slot = [-1] * n
        entries = n  # every generator was entered once by start()

        heap: List = []
        heappush, heappop = heapq.heappush, heapq.heappop
        full_duplex = model.full_duplex
        model_name = model.name

        # Posted sends (see the module docstring): the calendar maps a
        # slot to the {vertex: message} row of the sends posted there.
        # Only the energy meter may watch a posted trial; every other
        # observer reads each slot's senders, so it keeps plans stepped.
        # Most rows are never popped (nobody listens in their slot), so
        # post() drops the past ones once the calendar has doubled.
        posting = len(observers) == 1
        calendar: Dict[int, Dict[int, Any]] = {}
        prune_above = _CALENDAR_ROWS
        charge_sends = energy.charge_sends

        # Posted listens (see the module docstring) need a listener's
        # receptions to be a function of the calendar alone: a count
        # model (no per-reception draws), no slot-aware wrapper (jam,
        # burst loss) and no churn.  wake[v] is the slot where v next
        # acts, kept at every heap push and finish; a node acting in the
        # slot being processed has one no later than that slot.  A
        # padded ListenUntil waits in ``opening`` until its first slot's
        # wake-ups are done, since neighbours starting the same frame
        # there may be classified after it.
        listen_posting = (
            posting and model.supports_count and not slot_aware
            and churn is None
        )
        wake = [_NEVER] * n
        opening: List[int] = []
        neighbors = graph.neighbors
        charge_listens = energy.charge_listens
        heard: Dict[int, Any] = {}

        def post(v: int, plan: Plan, start: int) -> bool:
            """Post ``v``'s ``plan`` from slot ``start`` if it is a
            ``Steps`` that only sends and idles: lay its sends on the
            calendar, charge them, and sleep ``v`` until the plan ends.
            False, with no result changed, for any other plan (including
            malformed ones, which start_plan then refuses); a padded
            ``ListenUntil`` is also queued in ``opening``."""
            nonlocal prune_above
            if plan.__class__ is not Steps:
                if (
                    listen_posting
                    and plan.__class__ is ListenUntil
                    and plan.pad
                ):
                    opening.append(v)
                return False
            # Anything but a non-empty tuple (say, a one-shot iterable)
            # is left to start_plan, which reads the actions again.
            acts = plan.actions
            if acts.__class__ is not tuple or not acts:
                return False
            # One pass: each send is laid as it is checked.  A plan
            # turned down half-way leaves the rows it laid, and they are
            # invisible: start_plan steps the same plan from ``start``,
            # so ``v`` sends the same message in each of those slots.
            # Such a slot is processed for that stepped send, pops its
            # row and merges ``v``'s entry with the same message, so the
            # air is what the stepped run alone would put there.
            end = start
            sends = 0
            for act in acts:
                acls = act.__class__
                if acls is Send:
                    row = calendar.get(end)
                    if row is None:
                        calendar[end] = {v: act.message}
                    else:
                        row[v] = act.message
                    sends += 1
                    last = end
                    end += 1
                elif acls is Idle:
                    end += act.duration
                else:
                    return False
            if sends:
                charge_sends(v, sends, last)
            plans[v] = _POSTED_STEPS
            heappush(heap, (end, v, _RESUME))
            wake[v] = end
            if len(calendar) > prune_above:
                # Every slot before ``start`` is behind the slot loop:
                # its row was merged, or its slot will never be processed.
                for t in [t for t in calendar if t < start]:
                    del calendar[t]
                prune_above = 2 * len(calendar) + _CALENDAR_ROWS
            return True

        def listen_through(v: int, slot: int) -> bool:
            """Resolve ``v``'s padded ListenUntil, whose window starts at
            ``slot``, whole if every neighbour is fixed through the
            window's end: finished, asleep until then (its sends, if
            posted, are on the calendar), or in a padded ListenUntil
            that lasts as long.  Its receptions are then the calendar
            rows'.  Charge its listens up to the first accepted message,
            keep the plan's result and sleep ``v`` until the window
            ends.  False, with nothing changed, otherwise."""
            ps = plans[v]
            end = slot + ps[1]
            loud = False  # whether a posted plan's sends may reach v
            for u in neighbors(v):
                if wake[u] < end:
                    pu = plans[u]
                    if (
                        pu is None or pu[0] != OP_UNTIL or not pu[6]
                        or slot + pu[1] < end
                    ):
                        return False
                elif plans[u] is _POSTED_STEPS:
                    loud = True
            t = end - 1
            if loud:
                accept = ps[2]
                for t in range(slot, end):
                    row = calendar.get(t)
                    if row is not None:
                        resolve_slot(row, (v,), heard)
                        fb = heard[v]
                        if is_message(fb) and (accept is None or accept(fb)):
                            ps[5] = fb
                            break
            charge_listens(v, t - slot + 1, t)
            # plan_resume() ends an OP_PENDING state with ps[5] on wake-up,
            # as it does a matched window idled out.
            ps[0] = OP_PENDING
            heappush(heap, (end, v, _RESUME))
            wake[v] = end
            return True

        bucket_slot = 0
        bucket_senders: Dict[int, Any] = {}
        bucket_listeners: List[int] = []
        bucket_duplexers: Dict[int, Any] = {}

        remaining = len(first)
        for v, action in first:
            wake[v] = 0
            while True:
                cls = action.__class__
                if cls is Idle:
                    wake[v] = action.duration
                    heappush(heap, (action.duration, v, _RESUME))
                elif cls is Send:
                    bucket_senders[v] = action.message
                elif cls is Listen:
                    bucket_listeners.append(v)
                elif cls is SendListen:
                    if not full_duplex:
                        raise ProtocolError(
                            f"SendListen is illegal in the {model_name} model"
                        )
                    bucket_duplexers[v] = action.message
                elif isinstance(action, Plan):
                    if posting and post(v, action, 0):
                        break
                    plans[v], action = start_plan(action)
                    continue
                else:
                    action = exact_action(action)
                    continue
                break

        # Hot-loop locals: resolved once, not per slot.  The backend
        # specializes a per-slot resolver for this model (silence cache,
        # count-path dispatch) so the loop pays one call per active slot.
        resolve_slot = self.backend.slot_resolver(model)
        count_based = model.supports_count
        time_limit = self.time_limit
        last_slot = time_limit + 1  # the slot a run may still end in

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
            if slot > last_slot:
                raise timeout_error(time_limit, remaining, seed)

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
                        wake[v] = _NEVER
                        remaining -= 1
                        if duration < slot:
                            duration = slot
                        continue
                while True:
                    cls = action.__class__
                    if cls is Idle:
                        wake[v] = at = slot + action.duration
                        heappush(heap, (at, v, _RESUME))
                    elif cls is Send:
                        senders[v] = action.message
                    elif cls is Listen:
                        listeners.append(v)
                    elif cls is SendListen:
                        if not full_duplex:
                            raise ProtocolError(
                                f"SendListen is illegal in the {model_name} model"
                            )
                        duplexers[v] = action.message
                    elif isinstance(action, Plan):
                        if posting and post(v, action, slot):
                            break
                        plans[v], action = start_plan(action)
                        continue
                    else:
                        action = exact_action(action)
                        continue
                    break

            if slot == last_slot and remaining:
                raise timeout_error(time_limit, remaining, seed)
            if opening:
                # Every node acting in this slot is classified now.  A
                # window resolved whole leaves the slot's listeners.
                settled = {v for v in opening if listen_through(v, slot)}
                opening.clear()
                if settled:
                    listeners = [v for v in listeners if v not in settled]
            if not (senders or listeners or duplexers):
                continue

            if duplexers:
                transmitting = dict(senders)
                transmitting.update(duplexers)
                receivers = listeners + list(duplexers)
            else:
                transmitting = senders
                receivers = listeners
            # The sends posted here go on the air too; their senders
            # sleep, so they take no part in the rest of the slot.
            row = calendar.pop(slot, None)
            if row is not None:
                row.update(transmitting)
                transmitting = row
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
                    # Hottest first: SR frames run as ListenUntil (decay
                    # receivers) and Steps (senders, CD receivers) plans.
                    if op == OP_UNTIL:
                        fb = feedbacks[v]
                        if (
                            fb is SILENCE
                            or fb is NOISE
                            or fb is None
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
                                wake[v] = at = next_slot + act.duration
                                heappush(heap, (at, v, _RESUME))
                                continue
                            if not full_duplex:
                                raise ProtocolError(
                                    f"SendListen is illegal in the "
                                    f"{model_name} model"
                                )
                            bucket_duplexers[v] = act.message
                            continue
                        action, result = plan_resume(ps)
                    elif op == OP_SEND:  # mid send-run
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
                            wake[v] = _NEVER
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
                        wake[v] = _NEVER
                        remaining -= 1
                        continue
                while True:
                    cls = action.__class__
                    if cls is Idle:
                        wake[v] = at = next_slot + action.duration
                        heappush(heap, (at, v, _RESUME))
                    elif cls is Send:
                        bucket_senders[v] = action.message
                    elif cls is Listen:
                        bucket_listeners.append(v)
                    elif cls is SendListen:
                        if not full_duplex:
                            raise ProtocolError(
                                f"SendListen is illegal in the {model_name} model"
                            )
                        bucket_duplexers[v] = action.message
                    elif isinstance(action, Plan):
                        if posting and post(v, action, next_slot):
                            break
                        plans[v], action = start_plan(action)
                        continue
                    else:
                        action = exact_action(action)
                        continue
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
