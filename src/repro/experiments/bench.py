"""Engine microbenchmarks: slots/sec on fixed workloads.

``repro bench`` runs each workload on up to four simulators —

* ``engine`` — the current bitmask-resolution engine, which steps
  plan-emitting protocols slots at a time (:mod:`repro.sim.plan`),
* ``engine_slot`` — the same engine on per-slot yields: the workload's
  per-slot protocol variant when one exists (``slot_build``), else the
  same protocol wrapped in :func:`~repro.sim.plan.expand_plans` — the
  stepping baseline the phase ABI is measured against,
* ``engine_numpy`` — the phase engine on the vectorized numpy
  resolution backend (present when numpy is installed),
* ``reference`` — the naive slot-by-slot oracle
  (:class:`~repro.sim.reference.ReferenceSimulator`),

verifies they produce identical outputs/energy/duration, and writes the
timings to a JSON file (``repro bench --out``, default
``bench_results.json``, which git ignores).  CI uploads its file as a
per-run artifact, so the perf trajectory accumulates run over run.  CI runs the quick variant
and fails if the event-heap engine is not measurably faster than the
reference oracle — the tripwire for silent O(n * slots) regressions —
and if phase stepping stops beating the per-slot path on the
``phase_gate`` workloads (``--min-phase-speedup``).

Because wall-clock is noisy on shared runners, every tracked runner also
reports ``entries_per_slot`` — generator entries (``gen.send`` calls)
per simulated slot, the deterministic stepping-cost metric: a stepping
regression moves it even when the timings wobble.

Two extra sections isolate resolution and batching from stepping:

* workloads flagged ``backend_bench`` re-play their recorded slot
  activity straight through each :mod:`repro.sim.resolution` backend
  (no protocol stepping), reported under ``resolution_backends`` —
  that is where the numpy-vs-bitmask acceptance bar (and CI's
  ``--min-numpy-speedup`` gate) is measured;
* a ``lockstep_trials`` section times a multi-seed cell on the serial
  engine (per-slot and phase stepping) and on the lock-step dispatch
  (the trial-SoA engine when eligible), and cross-checks their results.

The matrix is fixed: every runner and variant uses the default
:class:`~repro.sim.config.ExecutionConfig` except on the one axis it
exists to compare, and no flag re-centers it.

Speedups are reported as ``other_seconds / engine_seconds`` (higher is
better for the engine).  ``slots/sec`` is simulated slots (the run's
``duration``) per wall-clock second on that fixed workload; it is only
comparable across runners of the *same* workload.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.broadcast.base import source_inputs
from repro.broadcast.path import path_broadcast_protocol
from repro.campaign.cells import knowledge_for
from repro.campaign.registry import GRAPH_FAMILIES, get_row
from repro.graphs import clique, path_graph
from repro.graphs.graph import Graph
from repro.sim import (
    LOCAL,
    NO_CD,
    ExecutionConfig,
    Idle,
    Knowledge,
    Listen,
    ListenUntil,
    Repeat,
    Send,
    Simulator,
)
from repro.sim.feedback import is_message
from repro.sim.batch import run_trials
from repro.sim.models import MODELS, ChannelModel, LossyModel
from repro.sim.observers import SlotObserver
from repro.sim.plan import expand_plans
from repro.sim.reference import ReferenceSimulator
from repro.sim.resolution import RESOLUTION_MODES, create_backend, numpy_available

__all__ = [
    "BenchWorkload",
    "default_workloads",
    "run_engine_benchmarks",
    "check_thresholds",
    "write_results",
    "format_report",
]


@dataclass
class BenchWorkload:
    """One fixed (graph, model, protocol) cell timed on every runner."""

    name: str
    description: str
    build: Callable[[], Tuple[Graph, ChannelModel, Callable, Knowledge, Dict]]
    reps: int = 3
    time_limit: int = 10_000_000
    # Whether to additionally replay this workload's recorded slots
    # straight through every resolution backend (no generator stepping)
    # — the numpy-vs-bitmask acceptance measurement, gated by
    # --min-numpy-speedup.
    backend_bench: bool = False
    # Optional builder of an explicit per-slot protocol variant,
    # byte-identical to build()'s (plan-emitting) protocol.  When given,
    # the engine_slot runner uses it directly (the honest pre-phase-ABI
    # baseline); when None it wraps build()'s protocol in expand_plans.
    slot_build: Optional[Callable[[], Callable]] = None
    # Whether --min-phase-speedup gates this workload's end-to-end
    # engine-vs-engine_slot ratio (the phase-stepping acceptance bar).
    phase_gate: bool = False


def _dense_protocol(slots: int):
    """Every node is active every slot (send w.p. 1/16, else listen):
    the channel-resolution stress test.  Per-slot variant — one
    generator entry per slot."""

    def protocol(ctx):
        heard = 0
        send_p = 1.0 / 16.0
        for step in range(slots):
            if ctx.rng.random() < send_p:
                yield Send(("m", ctx.index, step))
            else:
                feedback = yield Listen()
                if feedback is not None:
                    heard += 1
        return heard

    return protocol


def _dense_protocol_phase(slots: int):
    """Phase-compiled dense protocol, byte-identical to
    :func:`_dense_protocol`: the whole schedule's Bernoulli decisions are
    pre-drawn in one block (same draws, same order), consecutive listen
    slots collapse into ``Repeat(Listen, k)`` plans, and heard counts are
    recovered from the collected feedback tuples."""

    def protocol(ctx):
        heard = 0
        decisions = ctx.rand_bernoulli_block(1.0 / 16.0, slots)
        step = 0
        while step < slots:
            if decisions[step]:
                yield Send(("m", ctx.index, step))
                step += 1
                continue
            run = step + 1
            while run < slots and not decisions[run]:
                run += 1
            if run - step == 1:
                feedback = yield Listen()
                if feedback is not None:
                    heard += 1
            else:
                for feedback in (yield Repeat(Listen(), run - step)):
                    if feedback is not None:
                        heard += 1
            step = run
        return heard

    return protocol


def _dense_single_hop(n: int, slots: int):
    def build():
        graph = clique(n)
        knowledge = Knowledge(n=n, max_degree=n - 1, diameter=1)
        return graph, NO_CD, _dense_protocol_phase(slots), knowledge, {}

    return build


def _sr_frame_protocol(windows: int, phase: bool, senders: int = 2):
    """The paper's hottest communication shape at scale: a decay-style
    SR frame on a clique.  Two designated senders burst in lock-step (so
    burst slots always collide and no listener is ever released); every
    other node listens continuously for the whole schedule.  All nodes
    are active nearly every slot — dense — but the activity is
    *phase-structured*: per-window idle+burst for senders, one long
    listen-until for receivers.  This is the workload where generator
    stepping dominates end-to-end and the phase ABI must win
    (``--min-phase-speedup``); the mixed per-slot dense workload above
    stays the resolution-backend stress test.

    ``phase=False`` builds the byte-identical per-slot variant (the
    protocol is deterministic — no rng — so equivalence is structural).
    ``senders`` widens the colliding burst (the lossy bench raises it so
    collisions survive erasure w.h.p. and listeners stay dense).
    """
    W, B = 32, 4  # window length, burst length
    total = windows * W

    def protocol(ctx):
        if ctx.index < senders:
            send_act = Send(("m", ctx.index))
            for _ in range(windows):
                yield Idle(W - B)
                if phase:
                    yield Repeat(send_act, B)
                else:
                    for _ in range(B):
                        yield send_act
            return None
        if phase:
            return (yield ListenUntil(total, pad=True))
        got = None
        listened = 0
        while listened < total:
            feedback = yield Listen()
            listened += 1
            if is_message(feedback):
                got = feedback
                break
        if listened < total:
            yield Idle(total - listened)
        return got

    return protocol


def _sr_frame_cell(n: int, windows: int):
    def build():
        graph = clique(n)
        knowledge = Knowledge(n=n, max_degree=n - 1, diameter=1)
        return graph, NO_CD, _sr_frame_protocol(windows, True), knowledge, {}

    return build


def _clustering_row(size: int):
    def build():
        row = get_row("nocd")
        graph = GRAPH_FAMILIES[row.graph_family](size)
        knowledge = knowledge_for(graph)
        protocol = row.builder(graph, {})
        return graph, MODELS[row.model], protocol, knowledge, source_inputs(0, "m")

    return build


def _path_idle(n: int):
    def build():
        graph = path_graph(n)
        knowledge = Knowledge(n=n, max_degree=2, diameter=n - 1)
        protocol = path_broadcast_protocol(oriented=True)
        return graph, LOCAL, protocol, knowledge, source_inputs(0, "m")

    return build


def default_workloads(quick: bool = False) -> List[BenchWorkload]:
    """The standing benchmark set.

    * ``dense_single_hop_n512`` — every device active every slot on a
      clique, mixed send/listen per slot: resolution cost dominates (the
      backend gate's home turf; phase plans help only modestly here —
      Amdahl — which the recorded ``speedup_phase_vs_slot`` documents).
    * ``dense_sr_frame_n512`` — the decay SR-frame shape at n=512: 510
      continuous listeners + lock-step colliding burst senders.  Dense,
      but phase-structured — generator stepping dominates, so this
      workload carries the phase-ABI acceptance bar
      (``--min-phase-speedup``).
    * ``table1_clustering_row`` — the Table 1 No-CD clustering row
      (Theorem 11), sleep-heavy with realistic activity patterns: the
      per-slot engine overhead test.
    * ``path_idle_n1024`` — the Theorem 21 path algorithm, almost all
      idle: the event-heap vs slot-by-slot (reference) gap, guarding
      "idle time is free".

    ``quick`` shrinks sizes for CI smoke use; speedup *ratios* shrink
    with them, so thresholds for quick runs must be conservative.
    """
    if quick:
        return [
            # The dense workload keeps its full n=512 clique even in
            # quick mode: the numpy-vs-bitmask backend bar is defined at
            # n=512, and shrinking n would soften the vector advantage
            # the CI gate is meant to protect.  16 slots keep per-run
            # setup (node contexts, rng seeding) from swamping the
            # per-slot stepping signal the phase gate measures.
            BenchWorkload(
                "dense_single_hop_n512",
                "clique n=512, No-CD, 16 all-active slots (quick variant)",
                _dense_single_hop(512, 16),
                reps=3,
                backend_bench=True,
                slot_build=lambda: _dense_protocol(16),
            ),
            BenchWorkload(
                "dense_sr_frame_n512",
                "decay SR frame, clique n=512, 510 listeners + colliding "
                "bursts, 10 windows (quick variant)",
                _sr_frame_cell(512, 10),
                reps=3,
                slot_build=lambda: _sr_frame_protocol(10, False),
                phase_gate=True,
            ),
            BenchWorkload(
                "table1_clustering_row",
                "T1.noCD.1 clustering cell, gnp n=16, seed 0 (quick variant)",
                _clustering_row(16),
                reps=3,
            ),
            BenchWorkload(
                "path_idle_n1024",
                "Thm 21 path algorithm, n=512, idle-dominated (quick variant)",
                _path_idle(512),
                reps=3,
            ),
        ]
    return [
        BenchWorkload(
            "dense_single_hop_n512",
            "clique n=512, No-CD, 24 all-active slots",
            _dense_single_hop(512, 24),
            backend_bench=True,
            slot_build=lambda: _dense_protocol(24),
        ),
        BenchWorkload(
            "dense_sr_frame_n512",
            "decay SR frame, clique n=512, 510 listeners + colliding "
            "bursts, 12 windows",
            _sr_frame_cell(512, 12),
            slot_build=lambda: _sr_frame_protocol(12, False),
            phase_gate=True,
        ),
        BenchWorkload(
            "table1_clustering_row",
            "T1.noCD.1 clustering cell (Theorem 11, No-CD), gnp n=32, seed 0",
            _clustering_row(32),
        ),
        BenchWorkload(
            "path_idle_n1024",
            "Thm 21 path algorithm, n=1024, idle-dominated",
            _path_idle(1024),
        ),
    ]


def _time_best(make_runner: Callable[[], Any], protocol, inputs, reps: int):
    """Best-of-``reps`` wall time; a fresh runner per rep so per-run state
    (masks are graph-cached and shared, deliberately) is realistic."""
    best = float("inf")
    result = None
    for _ in range(reps):
        runner = make_runner()
        start = time.perf_counter()
        result = runner.run(protocol, inputs=inputs)
        best = min(best, time.perf_counter() - start)
    return best, result


def _runners(
    graph, model, knowledge, time_limit, protocol, slot_protocol,
) -> Dict[str, Tuple[Callable[[], Any], Callable]]:
    """name -> (make_runner, protocol) pairs.

    ``slot_protocol`` is the workload's explicit per-slot variant (or
    None); ``engine_slot`` runs it when given, so the phase-vs-slot ratio
    compares against the honest pre-phase-ABI stepping cost.
    """
    config = ExecutionConfig(time_limit=time_limit)
    common = dict(seed=0, knowledge=knowledge)

    def sim(config: ExecutionConfig) -> Callable[[], Simulator]:
        return lambda: Simulator(graph, model, exec_config=config, **common)

    if slot_protocol is None:
        # No explicit per-slot variant: expand plans per slot.
        def slot_protocol(ctx):
            return expand_plans(protocol(ctx))

    runners = {
        "engine": (sim(config), protocol),
        "engine_slot": (sim(config), slot_protocol),
        "reference": (
            lambda: ReferenceSimulator(
                graph, model, time_limit=time_limit, **common
            ),
            protocol,
        ),
    }
    if numpy_available():
        runners["engine_numpy"] = (
            sim(config.replace(resolution="numpy")), protocol
        )
    return runners


class _SlotRecorder(SlotObserver):
    """Captures every active slot's activity so the resolution backends
    can be replayed on identical inputs, stepping cost excluded."""

    def __init__(self) -> None:
        self.slots: List[Tuple[Dict[int, Any], List[int]]] = []

    def on_slot(self, slot, senders, listeners, duplexers, feedbacks) -> None:
        if duplexers:
            transmitting = dict(senders)
            transmitting.update(duplexers)
            receivers = list(listeners) + list(duplexers)
        else:
            transmitting = dict(senders)
            receivers = list(listeners)
        self.slots.append((transmitting, receivers))


def _backend_replay(
    graph, model, protocol, inputs, knowledge, time_limit, reps: int
) -> Dict:
    """Time each resolution backend on the workload's recorded slots.

    This isolates the hot path the backends own: the engine's generator
    stepping is identical across backends and dominates whole runs, so
    backend-level ratios are measured by replaying the exact
    (transmitting, receivers) sequence of one engine run through each
    backend's slot resolver alone.  Feedbacks are cross-checked between
    backends while timing, cheaply pinning semantic equivalence on the
    bench workload itself.
    """
    recorder = _SlotRecorder()
    Simulator(
        graph, model, seed=0, knowledge=knowledge,
        observers=(recorder,),
        exec_config=ExecutionConfig(time_limit=time_limit),
    ).run(protocol, inputs=inputs)
    slots = recorder.slots
    if not slots:  # e.g. a protocol that only idles: nothing to replay
        return {"slots_replayed": 0, "seconds": {}, "equivalent": True}
    # Short recordings (quick mode) are replayed several times per
    # timing so fixed per-call costs (numpy ufunc warm-up, timer
    # resolution) do not swamp the per-slot signal.
    inner = max(1, -(-120 // len(slots)))  # ceil division
    seconds: Dict[str, float] = {}
    feedback_sets: Dict[str, List[Dict[int, Any]]] = {}
    for name in RESOLUTION_MODES:
        if name == "numpy" and not numpy_available():
            continue
        backend = create_backend(name, graph)
        resolver = backend.slot_resolver(model)
        resolved: List[Dict[int, Any]] = []
        for transmitting, receivers in slots:  # warm-up + equivalence set
            feedbacks: Dict[int, Any] = {}
            resolver(transmitting, receivers, feedbacks)
            resolved.append(feedbacks)
        best = float("inf")
        for _ in range(max(reps, 5)):
            start = time.perf_counter()
            for _ in range(inner):
                for transmitting, receivers in slots:
                    resolver(transmitting, receivers, {})
            best = min(best, (time.perf_counter() - start) / inner)
        seconds[name] = best
        feedback_sets[name] = resolved
    baseline = feedback_sets["bitmask"]
    equivalent = all(other == baseline for other in feedback_sets.values())
    entry: Dict[str, Any] = {
        "slots_replayed": len(slots),
        "seconds": {k: round(v, 6) for k, v in seconds.items()},
        "equivalent": equivalent,
    }
    if "numpy" in seconds:
        entry["speedup_numpy_vs_bitmask"] = round(
            seconds["bitmask"] / seconds["numpy"], 3
        )
    return entry


def _time_batches(
    graph: Graph,
    knowledge: Knowledge,
    seeds: Sequence[int],
    variants: Dict[str, Tuple[Callable, ExecutionConfig]],
    reps: int,
) -> Tuple[Dict[str, float], Dict[str, List], bool]:
    """Best-of-``reps`` wall time of each ``name -> (protocol, config)``
    batch over ``seeds`` on the No-CD ``graph``, the last results of
    each, and whether every variant's outputs, durations and per-node
    energy totals match the first variant's."""
    seconds: Dict[str, float] = {}
    results: Dict[str, List] = {}
    for name, (protocol, config) in variants.items():
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            results[name] = run_trials(
                graph, NO_CD, protocol, seeds, knowledge=knowledge,
                exec_config=config,
            )
            best = min(best, time.perf_counter() - start)
        seconds[name] = best

    def measured(batch):
        return [
            (r.outputs, r.duration, [e.total for e in r.energy])
            for r in batch
        ]

    baseline = measured(next(iter(results.values())))
    equivalent = all(
        measured(batch) == baseline for batch in results.values()
    )
    return seconds, results, equivalent


def _soa_resolution() -> str:
    """The lock-step variants' backend: the SoA engine needs numpy."""
    return "numpy" if numpy_available() else "bitmask"


def _lockstep_section(quick: bool, seeds_count: int = 64) -> Dict:
    """Serial vs lock-step batched trials on one many-seed dense cell.

    The workload is the paper's hottest communication shape — the
    SR-frame clique (every node active nearly every slot, receivers in
    one long listen window per frame) — run across many seeds, which is
    the shape million-trial campaigns batch.  ``lockstep_phase`` rides
    the trial-axis struct-of-arrays engine (:mod:`repro.sim.trialsoa`)
    whenever numpy is importable, and its ratio to the best serial
    configuration, ``speedup_lockstep_vs_serial_phase``, carries the
    perf-smoke ``--min-lockstep-speedup`` gate.  ``--seeds`` scales the
    trial count.
    """
    n, windows = (256, 4) if quick else (512, 4)
    seeds = list(range(seeds_count))
    graph = clique(n)
    knowledge = Knowledge(n=n, max_degree=n - 1, diameter=1)
    phase_protocol = _sr_frame_protocol(windows, phase=True)
    soa_res = _soa_resolution()
    seconds, results, equivalent = _time_batches(graph, knowledge, seeds, {
        "serial_slot": (
            _sr_frame_protocol(windows, phase=False), ExecutionConfig()
        ),
        "serial_phase": (phase_protocol, ExecutionConfig()),
        "lockstep_phase": (
            phase_protocol,
            ExecutionConfig(lockstep=True, resolution=soa_res),
        ),
    }, reps=3)
    lockstep = results["lockstep_phase"]
    soa_active = bool(lockstep) and lockstep[0].soa_reason == "ok"
    return {
        "description": (
            f"SR-frame clique n={n}, No-CD, {windows} windows x 32 slots "
            f"x {len(seeds)} seeds (lockstep_phase resolution: {soa_res}, "
            f"SoA engine {'active' if soa_active else 'inactive'})"
        ),
        "seeds": len(seeds),
        "soa_active": soa_active,
        "seconds": {k: round(v, 6) for k, v in seconds.items()},
        "equivalent": equivalent,
        # The batched executor with phase stepping vs the serial
        # per-slot path (a diagnostic; the per-slot path is no baseline).
        "speedup_lockstep_phase_vs_serial_slot": round(
            seconds["serial_slot"] / seconds["lockstep_phase"], 3
        ),
        # Stepping win isolated on the serial engine.
        "speedup_phase_vs_slot_serial": round(
            seconds["serial_slot"] / seconds["serial_phase"], 3
        ),
        # Gated: the batching win under phase stepping, SoA vs the best
        # serial configuration.
        "speedup_lockstep_vs_serial_phase": round(
            seconds["serial_phase"] / seconds["lockstep_phase"], 3
        ),
    }


def _lossy_lockstep_section(quick: bool, seeds_count: int = 64) -> Dict:
    """Serial vs lock-step batched trials under a per-seed lossy channel.

    The workload (``lossy_sr_frame_n256``) is the SR-frame clique from
    :func:`_lockstep_section` wrapped in a per-seed
    ``model_factory=lambda s: LossyModel(NO_CD, rate, seed=s)`` — the
    shape every erasure-sensitivity campaign row runs.  The lock-step
    numpy variant rides the SoA engine's vectorized drop-mask path
    (:mod:`repro.sim.trialsoa`): per trial per round, one transplanted
    ``RandomState.random_sample`` call replaces the serial oracle's
    per-transmission ``random.random()`` loop while drawing the exact
    same stream, so results stay byte-identical.  The headline ratio
    ``speedup_lossy_soa_vs_serial`` carries the perf-smoke
    ``--min-lossy-soa-speedup`` gate, and ``soa_reason`` records which
    dispatch verdict each variant actually got — the gate also requires
    ``soa_active`` (the numpy variant reporting ``"ok"``), so a silent
    fallback to the serial engine fails CI rather than hiding in a
    slower-but-green run.
    """
    # Eight bursting senders (vs the clean section's two): with eight
    # on-air transmissions per burst slot at rate 0.3, the chance a
    # receiver sees exactly one survivor — and is released from its
    # listen window — is ~0.1% per slot, so the cell stays dense for
    # the whole schedule while erasure draws dominate the channel work.
    n, windows, rate, senders = 256, (2 if quick else 4), 0.3, 8
    seeds = list(range(seeds_count))
    graph = clique(n)
    knowledge = Knowledge(n=n, max_degree=n - 1, diameter=1)

    def factory(seed: int) -> LossyModel:
        # Fresh models per run_trials call: LossyModel is stateful (its
        # erasure rng advances), so each timing rep must restart the
        # per-seed stream to stay deterministic.
        return LossyModel(NO_CD, rate, seed=seed)

    lossy = ExecutionConfig(model_factory=factory)
    soa_res = _soa_resolution()
    # Best-of-2 (not 3): the serial lossy oracle draws one python rng
    # sample per on-air transmission per receiver, making it the
    # slowest leg of the whole bench.
    seconds, results, equivalent = _time_batches(graph, knowledge, seeds, {
        "serial_slot": (
            _sr_frame_protocol(windows, phase=False, senders=senders), lossy
        ),
        "lockstep_phase": (
            _sr_frame_protocol(windows, phase=True, senders=senders),
            lossy.replace(lockstep=True, resolution=soa_res),
        ),
    }, reps=2)
    reasons = {
        name: outcome[0].soa_reason if outcome else None
        for name, outcome in results.items()
    }
    soa_active = reasons["lockstep_phase"] == "ok"
    return {
        "workload": "lossy_sr_frame_n256",
        "description": (
            f"SR-frame clique n={n} under LossyModel(No-CD, rate={rate}) "
            f"per seed, {senders} bursting senders, {windows} windows x "
            f"32 slots x {len(seeds)} seeds (lockstep_phase resolution: "
            f"{soa_res}, SoA engine {'active' if soa_active else 'inactive'})"
        ),
        "seeds": len(seeds),
        "loss_rate": rate,
        "soa_active": soa_active,
        "soa_reason": reasons,
        "seconds": {k: round(v, 6) for k, v in seconds.items()},
        "equivalent": equivalent,
        # Headline: the vectorized lossy SoA path vs the serial oracle.
        "speedup_lossy_soa_vs_serial": round(
            seconds["serial_slot"] / seconds["lockstep_phase"], 3
        ),
    }


def run_engine_benchmarks(
    quick: bool = False,
    workloads: Optional[Sequence[BenchWorkload]] = None,
    lockstep_seeds: int = 64,
) -> Dict:
    """Time every workload on every runner; verify equivalence; report.

    The runner matrix is fixed (see :func:`_runners` and the two
    lock-step sections): every runner uses the default execution config
    except for the axis it exists to compare.
    """
    if workloads is None:
        workloads = default_workloads(quick=quick)
    report: Dict[str, Any] = {
        "generated_by": "repro bench",
        "quick": bool(quick),
        "python": platform.python_version(),
        "workloads": {},
    }
    for workload in workloads:
        graph, model, protocol, knowledge, inputs = workload.build()
        slot_protocol = workload.slot_build() if workload.slot_build else None
        timings: Dict[str, float] = {}
        results = {}
        for name, (make_runner, runner_protocol) in _runners(
            graph, model, knowledge, workload.time_limit,
            protocol, slot_protocol,
        ).items():
            timings[name], results[name] = _time_best(
                make_runner, runner_protocol, inputs, workload.reps
            )
        baseline = results["engine"]
        equivalent = all(
            other.outputs == baseline.outputs
            and other.duration == baseline.duration
            and [e.total for e in other.energy]
            == [e.total for e in baseline.energy]
            for other in results.values()
        )
        slots = baseline.duration
        engine_seconds = timings["engine"]
        entry = {
            "description": workload.description,
            "n": graph.n,
            "slots": slots,
            "seconds": {k: round(v, 6) for k, v in timings.items()},
            "slots_per_sec": {
                k: round(slots / v, 1) if v > 0 else float("inf")
                for k, v in timings.items()
            },
            # Generator entries per simulated slot: the deterministic
            # stepping-cost metric.
            "entries_per_slot": {
                k: round(r.gen_entries / slots, 2) if slots else 0.0
                for k, r in results.items()
            },
            "speedup_vs_reference": round(timings["reference"] / engine_seconds, 3),
            "speedup_phase_vs_slot": round(
                timings["engine_slot"] / engine_seconds, 3
            ),
            "equivalent": equivalent,
            "phase_gate": workload.phase_gate,
        }
        if "engine_numpy" in timings:
            # Whole-run ratio: generator stepping (backend-independent)
            # is included, so this understates the backend-level gap —
            # see resolution_backends for the isolated measurement.
            entry["runtime_numpy_vs_bitmask"] = round(
                engine_seconds / timings["engine_numpy"], 3
            )
        if workload.backend_bench:
            entry["resolution_backends"] = _backend_replay(
                graph, model, protocol, inputs, knowledge,
                workload.time_limit, workload.reps,
            )
        report["workloads"][workload.name] = entry
    report["numpy_available"] = numpy_available()
    report["lockstep_trials"] = _lockstep_section(quick, lockstep_seeds)
    report["lossy_lockstep_trials"] = _lossy_lockstep_section(
        quick, lockstep_seeds
    )
    ref_ratios = [
        entry["speedup_vs_reference"]
        for entry in report["workloads"].values()
    ]
    report["summary"] = (
        {"min_speedup_vs_reference": min(ref_ratios)} if ref_ratios else {}
    )
    phase_ratios = [
        entry["speedup_phase_vs_slot"]
        for entry in report["workloads"].values()
        if entry.get("phase_gate")
    ]
    if phase_ratios:
        report["summary"]["min_phase_vs_slot"] = min(phase_ratios)
    backend_ratios = [
        entry["resolution_backends"]["speedup_numpy_vs_bitmask"]
        for entry in report["workloads"].values()
        if "speedup_numpy_vs_bitmask" in entry.get("resolution_backends", {})
    ]
    if backend_ratios:
        report["summary"]["min_backend_numpy_vs_bitmask"] = min(backend_ratios)
    return report


def check_thresholds(
    report: Dict,
    min_ref_speedup: Optional[float] = None,
    min_numpy_speedup: Optional[float] = None,
    min_phase_speedup: Optional[float] = None,
    min_lockstep_speedup: Optional[float] = None,
    min_lossy_soa_speedup: Optional[float] = None,
) -> List[str]:
    """Return human-readable violations (empty = all thresholds met).

    ``min_numpy_speedup`` gates the *backend-level* numpy-vs-bitmask
    ratio on every ``backend_bench`` workload; asking for it without
    numpy installed is itself a violation (the CI perf job installs the
    ``fast`` extra precisely so this gate is meaningful).
    ``min_phase_speedup`` gates the end-to-end phase-vs-per-slot
    stepping ratio on every ``phase_gate`` workload.
    ``min_lockstep_speedup`` gates the lockstep_trials ratio against the
    best serial configuration (``speedup_lockstep_vs_serial_phase``: the
    SoA engine vs the serial engine, both phase-stepped) and requires the
    SoA trial-axis engine to actually be the path measured — a run where
    it silently fell back to the serial engine is itself a violation.
    ``min_lossy_soa_speedup`` applies the same discipline to the
    lossy-channel workload (``lossy_lockstep_trials``): it gates
    ``speedup_lossy_soa_vs_serial`` and demands ``soa_active`` — the
    lossy variant must report dispatch verdict ``"ok"``, proving the
    vectorized drop-mask path (not the serial fallback) was timed.
    """
    violations = []
    if min_numpy_speedup is not None and not report.get("numpy_available"):
        violations.append(
            "min-numpy-speedup requested but numpy is not installed"
        )
    lockstep = report.get("lockstep_trials")
    if lockstep is not None and not lockstep.get("equivalent", True):
        violations.append(
            "lockstep_trials: lock-step results diverge from serial"
        )
    if min_lockstep_speedup is not None:
        if lockstep is None:
            violations.append(
                "min-lockstep-speedup requested but the lockstep_trials "
                "section is missing from the report"
            )
        else:
            if not lockstep.get("soa_active"):
                violations.append(
                    "min-lockstep-speedup requested but the SoA lock-step "
                    "engine was inactive (numpy missing)"
                )
            ratio = lockstep.get("speedup_lockstep_vs_serial_phase")
            if ratio is not None and ratio < min_lockstep_speedup:
                violations.append(
                    f"lockstep_trials: speedup_lockstep_vs_serial_phase "
                    f"{ratio}x < required {min_lockstep_speedup}x"
                )
    lossy = report.get("lossy_lockstep_trials")
    if lossy is not None and not lossy.get("equivalent", True):
        violations.append(
            "lossy_lockstep_trials: lossy lock-step results diverge "
            "from the serial oracle"
        )
    if min_lossy_soa_speedup is not None:
        if lossy is None:
            violations.append(
                "min-lossy-soa-speedup requested but the "
                "lossy_lockstep_trials section is missing from the report"
            )
        else:
            if not lossy.get("soa_active"):
                violations.append(
                    "min-lossy-soa-speedup requested but the SoA lossy "
                    "path was inactive (dispatch verdict "
                    f"{lossy.get('soa_reason', {}).get('lockstep_phase')!r} "
                    "instead of 'ok')"
                )
            ratio = lossy.get("speedup_lossy_soa_vs_serial")
            if ratio is not None and ratio < min_lossy_soa_speedup:
                violations.append(
                    f"lossy_lockstep_trials: speedup_lossy_soa_vs_serial "
                    f"{ratio}x < required {min_lossy_soa_speedup}x"
                )
    for name, entry in report["workloads"].items():
        if not entry["equivalent"]:
            violations.append(f"{name}: runners disagree (equivalence failed)")
        backends = entry.get("resolution_backends")
        if backends is not None:
            if not backends.get("equivalent", True):
                violations.append(
                    f"{name}: resolution backends disagree on replayed slots"
                )
            ratio = backends.get("speedup_numpy_vs_bitmask")
            if (
                min_numpy_speedup is not None
                and ratio is not None
                and ratio < min_numpy_speedup
            ):
                violations.append(
                    f"{name}: backend numpy-vs-bitmask {ratio}x "
                    f"< required {min_numpy_speedup}x"
                )
        if (
            min_ref_speedup is not None
            and entry["speedup_vs_reference"] < min_ref_speedup
        ):
            violations.append(
                f"{name}: speedup_vs_reference {entry['speedup_vs_reference']}x "
                f"< required {min_ref_speedup}x"
            )
        phase_ratio = entry["speedup_phase_vs_slot"]
        if (
            min_phase_speedup is not None
            and entry.get("phase_gate")
            and phase_ratio < min_phase_speedup
        ):
            violations.append(
                f"{name}: speedup_phase_vs_slot {phase_ratio}x "
                f"< required {min_phase_speedup}x"
            )
    return violations


def write_results(report: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_report(report: Dict) -> str:
    lines = ["engine microbenchmarks (slots/sec; speedups are vs the engine)"]

    for name, entry in report["workloads"].items():
        lines.append(f"  {name}: {entry['description']}")
        lines.append(
            "    engine {engine:>12.1f} slots/s | phase-vs-slot x{phase:.2f} | "
            "reference x{ref:.2f} | equivalent={eq}".format(
                engine=entry["slots_per_sec"]["engine"],
                phase=entry["speedup_phase_vs_slot"],
                ref=entry["speedup_vs_reference"],
                eq=entry["equivalent"],
            )
        )
        entries = entry.get("entries_per_slot")
        if entries:
            lines.append(
                "    gen entries/slot: "
                + " | ".join(
                    f"{runner} {value:.2f}"
                    for runner, value in sorted(entries.items())
                )
            )
        if "runtime_numpy_vs_bitmask" in entry:
            lines.append(
                f"    numpy whole-run x{entry['runtime_numpy_vs_bitmask']:.2f}"
                " (includes backend-independent stepping)"
            )
        backends = entry.get("resolution_backends")
        if backends is not None:
            ratio = backends.get("speedup_numpy_vs_bitmask")
            numpy_part = (
                f"numpy x{ratio:.2f} vs bitmask" if ratio is not None
                else "numpy unavailable"
            )
            lines.append(
                f"    backend replay ({backends['slots_replayed']} slots): "
                f"{numpy_part} | equivalent={backends['equivalent']}"
            )
    lockstep = report.get("lockstep_trials")
    if lockstep is not None:
        lines.append(f"  lockstep_trials: {lockstep['description']}")
        lines.append(
            "    lock-step-vs-serial (phase) x{d:.2f} (SoA={soa}) | "
            "lock-step+phase x{a:.2f} vs serial per-slot | "
            "phase-vs-slot serial x{b:.2f} | equivalent={eq}".format(
                soa=lockstep.get("soa_active", False),
                a=lockstep["speedup_lockstep_phase_vs_serial_slot"],
                b=lockstep["speedup_phase_vs_slot_serial"],
                d=lockstep["speedup_lockstep_vs_serial_phase"],
                eq=lockstep["equivalent"],
            )
        )
    lossy = report.get("lossy_lockstep_trials")
    if lossy is not None:
        lines.append(f"  lossy_lockstep_trials: {lossy['description']}")
        reasons = lossy.get("soa_reason", {})
        lines.append(
            "    lossy SoA x{a:.2f} vs serial (SoA={soa}) | equivalent={eq} | "
            "soa_reason: {reasons}".format(
                a=lossy["speedup_lossy_soa_vs_serial"],
                soa=lossy.get("soa_active", False),
                eq=lossy["equivalent"],
                reasons=", ".join(
                    f"{name}={reason}"
                    for name, reason in sorted(reasons.items())
                ),
            )
        )
    return "\n".join(lines)
