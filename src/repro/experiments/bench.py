"""Engine microbenchmarks: slots/sec on fixed workloads.

``repro bench`` runs each workload on up to three simulators —

* ``engine`` — the serial event-heap engine on the bitmask resolution
  backend, stepping plan-emitting protocols slots at a time
  (:mod:`repro.sim.plan`): the best simple configuration, which every
  ratio is taken against,
* ``engine_numpy`` — the same engine on the vectorized numpy
  resolution backend (present when numpy is installed),
* ``reference`` — the naive slot-by-slot oracle
  (:class:`~repro.sim.reference.ReferenceSimulator`),

verifies they produce identical outputs/energy/duration, and writes the
timings to a JSON file (``repro bench --out``, default
``bench_results.json``, which git ignores).  CI uploads its file as a
per-run artifact, so the perf trajectory accumulates run over run.  CI
runs the quick variant and fails if the event-heap engine is not
measurably faster than the reference oracle — the tripwire for silent
O(n * slots) regressions.

Because wall-clock is noisy on shared runners, every tracked runner also
reports ``entries_per_slot`` — generator entries (``gen.send`` calls)
per simulated slot, a deterministic stand-in for stepping cost through
deep ``yield from`` chains: a stepping regression there moves it even
when the timings wobble.  It does not price shallow generators, where
two plain yields cost less than one entry that starts a plan.

Extra sections isolate resolution and batching from stepping:

* workloads flagged ``backend_bench`` re-play their recorded slot
  activity straight through each :mod:`repro.sim.resolution` backend
  (no protocol stepping), reported under ``resolution_backends`` —
  that is where the numpy-vs-bitmask acceptance bar (and CI's
  ``--min-numpy-speedup`` gate) is measured;
* the ``lockstep_trials`` and ``lossy_lockstep_trials`` sections time a
  multi-seed SR-frame cell, clean and under a per-seed lossy channel,
  on the serial engine and on the lock-step dispatch (the trial-SoA
  engine when eligible), and cross-check their results.

The matrix is fixed: every runner and variant uses the default
:class:`~repro.sim.config.ExecutionConfig` except on the one axis it
exists to compare, and no flag re-centers it.

Speedups are reported as ``other_seconds / engine_seconds`` (higher is
better for the engine).  ``slots/sec`` is simulated slots (the run's
``duration``) per wall-clock second on that fixed workload; it is only
comparable across runners of the *same* workload.
"""

from __future__ import annotations

import gc
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
from repro.sim.batch import run_trials
from repro.sim.models import MODELS, ChannelModel, LossyModel
from repro.sim.observers import SlotObserver
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


def _dense_protocol(slots: int):
    """Every node is active every slot (send w.p. 1/16, else listen):
    the channel-resolution stress test, one generator entry per slot."""

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


def _dense_single_hop(n: int, slots: int):
    def build():
        graph = clique(n)
        knowledge = Knowledge(n=n, max_degree=n - 1, diameter=1)
        return graph, NO_CD, _dense_protocol(slots), knowledge, {}

    return build


def _sr_frame_protocol(windows: int, senders: int = 2):
    """The paper's hottest communication shape at scale: a decay-style
    SR frame on a clique.  ``senders`` designated senders burst in
    lock-step (so burst slots always collide and no listener is ever
    released); every other node listens continuously for the whole
    schedule.  All nodes are active nearly every slot — dense — but the
    activity is *phase-structured*: per-window idle+burst for senders,
    one long listen-until for receivers, so generator stepping weighs
    more here than on the mixed per-slot dense workload above.  The lossy
    section raises ``senders`` so collisions survive erasure w.h.p. and
    listeners stay dense.
    """
    W, B = 32, 4  # window length, burst length
    total = windows * W

    def protocol(ctx):
        if ctx.index < senders:
            send_act = Send(("m", ctx.index))
            for _ in range(windows):
                yield Idle(W - B)
                yield Repeat(send_act, B)
            return None
        return (yield ListenUntil(total, pad=True))

    return protocol


def _sr_frame_cell(n: int, windows: int):
    def build():
        graph = clique(n)
        knowledge = Knowledge(n=n, max_degree=n - 1, diameter=1)
        return graph, NO_CD, _sr_frame_protocol(windows), knowledge, {}

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
      backend gate's home turf).  It keeps its full n=512 clique in
      quick mode: the numpy-vs-bitmask backend bar is defined at n=512,
      and a smaller n would soften the vector advantage the gate
      protects.
    * ``dense_sr_frame_n512`` — the decay SR-frame shape at n=512: 510
      continuous listeners + lock-step colliding burst senders.  Dense,
      but phase-structured.
    * ``table1_clustering_row`` — the Table 1 No-CD clustering row
      (Theorem 11), sleep-heavy with realistic activity patterns: the
      per-slot engine overhead test.
    * ``path_idle`` — the Theorem 21 path algorithm, almost all idle:
      the event-heap vs slot-by-slot (reference) gap, guarding "idle
      time is free".

    ``quick`` shrinks sizes for CI smoke use; speedup *ratios* shrink
    with them, so thresholds for quick runs must be conservative.
    """
    slots, windows, size, path_n = (
        (16, 10, 16, 512) if quick else (24, 12, 32, 1024)
    )
    variant = " (quick variant)" if quick else ""
    return [
        BenchWorkload(
            "dense_single_hop_n512",
            f"clique n=512, No-CD, {slots} all-active slots{variant}",
            _dense_single_hop(512, slots),
            backend_bench=True,
        ),
        BenchWorkload(
            "dense_sr_frame_n512",
            "decay SR frame, clique n=512, 510 listeners + colliding "
            f"bursts, {windows} windows{variant}",
            _sr_frame_cell(512, windows),
        ),
        BenchWorkload(
            "table1_clustering_row",
            "T1.noCD.1 clustering cell (Theorem 11, No-CD), "
            f"gnp n={size}, seed 0{variant}",
            _clustering_row(size),
        ),
        BenchWorkload(
            "path_idle",
            f"Thm 21 path algorithm, n={path_n}, idle-dominated{variant}",
            _path_idle(path_n),
        ),
    ]


def _time_best(make_runner: Callable[[], Any], protocol, inputs, reps: int):
    """Best-of-``reps`` wall time; a fresh runner per rep so per-run state
    (masks are graph-cached and shared, deliberately) is realistic.

    Every timed repetition here and in the other sections starts right
    after a full garbage collection, outside the timed region, so a
    reading does not depend on how many objects earlier work left for
    the collector."""
    best = float("inf")
    result = None
    for _ in range(reps):
        runner = make_runner()
        gc.collect()
        start = time.perf_counter()
        result = runner.run(protocol, inputs=inputs)
        best = min(best, time.perf_counter() - start)
    return best, result


def _runners(graph, model, knowledge, time_limit) -> Dict[str, Callable[[], Any]]:
    """name -> runner factory; every runner steps the workload's one
    protocol."""
    config = ExecutionConfig(time_limit=time_limit)
    common = dict(seed=0, knowledge=knowledge)

    def sim(config: ExecutionConfig) -> Callable[[], Simulator]:
        return lambda: Simulator(graph, model, exec_config=config, **common)

    runners = {
        "engine": sim(config),
        "reference": lambda: ReferenceSimulator(
            graph, model, time_limit=time_limit, **common
        ),
    }
    if numpy_available():
        runners["engine_numpy"] = sim(config.replace(resolution="numpy"))
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
            gc.collect()
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


def _lockstep_section(
    n: int,
    windows: int,
    senders: int,
    seeds: Sequence[int],
    reps: int,
    loss_rate: float = 0.0,
) -> Dict:
    """Serial vs lock-step batched trials on one many-seed SR-frame cell.

    The cell is :func:`_sr_frame_protocol` on a clique — the paper's
    hottest communication shape — run across many seeds, the shape
    million-trial campaigns batch.  ``serial_phase`` runs it on the
    serial engine (the best simple configuration) and ``lockstep_phase``
    on the lock-step dispatch, which rides the trial-axis
    struct-of-arrays engine (:mod:`repro.sim.trialsoa`) whenever numpy
    is importable.  A ``loss_rate`` wraps each seed's channel in a fresh
    ``LossyModel(NO_CD, loss_rate, seed=s)`` through ``model_factory`` —
    the shape every erasure-sensitivity campaign row runs — where the
    SoA engine draws each round's erasures in one vectorized call that
    reproduces the serial engine's stream, so results stay
    byte-identical.  Each variant takes the best of ``reps`` timings,
    and the section reports ``speedup_vs_serial_phase`` together with
    the lock-step variant's dispatch verdict ``soa_reason``, so a
    silent fallback to the serial engine shows instead of hiding in a
    slower-but-green run.
    """
    graph = clique(n)
    knowledge = Knowledge(n=n, max_degree=n - 1, diameter=1)
    protocol = _sr_frame_protocol(windows, senders)
    serial = ExecutionConfig()
    channel = "No-CD"
    if loss_rate:
        def factory(seed: int) -> LossyModel:
            # A fresh model per run: LossyModel is stateful (its erasure
            # rng advances), so each timing rep restarts the per-seed
            # stream.
            return LossyModel(NO_CD, loss_rate, seed=seed)

        serial = ExecutionConfig(model_factory=factory)
        channel = f"LossyModel(No-CD, rate={loss_rate}) per seed"
    soa_res = "numpy" if numpy_available() else "bitmask"
    variants = {
        "serial_phase": serial,
        "lockstep_phase": serial.replace(lockstep=True, resolution=soa_res),
    }
    seconds: Dict[str, float] = {}
    batches: Dict[str, List] = {}
    for name, config in variants.items():
        best = float("inf")
        for _ in range(reps):
            gc.collect()
            start = time.perf_counter()
            batches[name] = run_trials(
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

    soa_reason = batches["lockstep_phase"][0].soa_reason
    soa_active = soa_reason == "ok"
    return {
        "description": (
            f"SR-frame clique n={n}, {channel}, {senders} bursting senders, "
            f"{windows} windows x 32 slots x {len(seeds)} seeds "
            f"(lockstep_phase resolution: {soa_res}, SoA engine "
            f"{'active' if soa_active else 'inactive'})"
        ),
        "seeds": len(seeds),
        "loss_rate": loss_rate,
        "soa_active": soa_active,
        "soa_reason": soa_reason,
        "seconds": {k: round(v, 6) for k, v in seconds.items()},
        "equivalent": (
            measured(batches["serial_phase"])
            == measured(batches["lockstep_phase"])
        ),
        "speedup_vs_serial_phase": round(
            seconds["serial_phase"] / seconds["lockstep_phase"], 3
        ),
    }


def run_engine_benchmarks(
    quick: bool = False,
    workloads: Optional[Sequence[BenchWorkload]] = None,
    lockstep_seeds: int = 64,
) -> Dict:
    """Time every workload on every runner; verify equivalence; report.

    The runner matrix is fixed (see :func:`_runners` and
    :func:`_lockstep_section`): every runner uses the default execution
    config except for the axis it exists to compare.
    ``lockstep_seeds`` (at least 1) is the trial count of both
    lock-step sections.
    """
    if lockstep_seeds < 1:
        raise ValueError(f"lockstep_seeds must be >= 1, got {lockstep_seeds}")
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
        timings: Dict[str, float] = {}
        results = {}
        for name, make_runner in _runners(
            graph, model, knowledge, workload.time_limit
        ).items():
            timings[name], results[name] = _time_best(
                make_runner, protocol, inputs, workload.reps
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
            "equivalent": equivalent,
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
    seeds = list(range(lockstep_seeds))
    report["lockstep_trials"] = _lockstep_section(
        256 if quick else 512, windows=4, senders=2, seeds=seeds, reps=3,
    )
    # Eight bursting senders: with eight on-air transmissions per burst
    # slot at rate 0.3, the chance a receiver sees exactly one survivor —
    # and is released from its listen window — is ~0.1% per slot, so the
    # cell stays dense for the whole schedule while erasure draws
    # dominate the channel work.  Best-of-2: the serial lossy run draws
    # one python rng sample per on-air transmission per receiver, the
    # slowest leg of the whole bench.
    report["lossy_lockstep_trials"] = _lockstep_section(
        256, windows=2 if quick else 4, senders=8, seeds=seeds, reps=2,
        loss_rate=0.3,
    )
    ref_ratios = [
        entry["speedup_vs_reference"]
        for entry in report["workloads"].values()
    ]
    report["summary"] = (
        {"min_speedup_vs_reference": min(ref_ratios)} if ref_ratios else {}
    )
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
    min_lockstep_speedup: Optional[float] = None,
    min_lossy_soa_speedup: Optional[float] = None,
) -> List[str]:
    """Return human-readable violations (empty = all thresholds met).

    ``min_numpy_speedup`` gates the *backend-level* numpy-vs-bitmask
    ratio on every ``backend_bench`` workload; asking for it without
    numpy installed is itself a violation (the CI perf job installs the
    ``fast`` extra precisely so this gate is meaningful).
    ``min_lockstep_speedup`` and ``min_lossy_soa_speedup`` gate the
    ``speedup_vs_serial_phase`` of the ``lockstep_trials`` and
    ``lossy_lockstep_trials`` sections — the SoA engine against the best
    serial configuration, the serial engine with phase stepping — and
    require the SoA engine to be the path measured: a section whose
    lock-step variant fell back to the serial engine (dispatch verdict
    other than ``"ok"``) is itself a violation.  A section whose
    lock-step results diverge from the serial ones always is.
    """
    violations = []
    if min_numpy_speedup is not None and not report.get("numpy_available"):
        violations.append(
            "min-numpy-speedup requested but numpy is not installed"
        )
    for key, flag, bar in (
        ("lockstep_trials", "min-lockstep-speedup", min_lockstep_speedup),
        ("lossy_lockstep_trials", "min-lossy-soa-speedup",
         min_lossy_soa_speedup),
    ):
        section = report.get(key)
        if section is not None and not section["equivalent"]:
            violations.append(f"{key}: lock-step results diverge from serial")
        if bar is None:
            continue
        if section is None:
            violations.append(
                f"{flag} requested but the {key} section is missing from "
                "the report"
            )
            continue
        if not section["soa_active"]:
            violations.append(
                f"{flag} requested but the SoA lock-step engine was "
                f"inactive (dispatch verdict {section['soa_reason']!r} "
                "instead of 'ok')"
            )
        ratio = section["speedup_vs_serial_phase"]
        if ratio < bar:
            violations.append(
                f"{key}: speedup_vs_serial_phase {ratio}x < required {bar}x"
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
            "    engine {engine:>12.1f} slots/s | reference x{ref:.2f} | "
            "equivalent={eq}".format(
                engine=entry["slots_per_sec"]["engine"],
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
    for key in ("lockstep_trials", "lossy_lockstep_trials"):
        section = report.get(key)
        if section is None:
            continue
        lines.append(f"  {key}: {section['description']}")
        lines.append(
            f"    lock-step x{section['speedup_vs_serial_phase']:.2f} vs "
            f"serial (phase) | soa_reason={section['soa_reason']} | "
            f"equivalent={section['equivalent']}"
        )
    return "\n".join(lines)
