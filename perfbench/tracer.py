"""Layer spans for the traced benchmark run, installed from outside.

:func:`install` wraps the public entry point of each layer of ``repro``
(graph builds, graph facts, ``run_trials``, channel classification, the
energy observer, trace recording, lower-bound analysis, fault plans)
with a timer that feeds one :class:`Tracer`.  Nothing in ``src/``
changes: each wrapper is rebound wherever the original function object
is bound in a loaded ``repro`` module, so ``from x import f`` call sites
see it too.

A layer's time is its self time: a call's duration minus the part of it
spent in nested wrapped calls.  A call nested inside a call of the same
layer is accounted to the outer one only.  Coarse layers also keep a
span record ``(name, start, end, parent)``; hot per-slot layers keep
only call counts and times.  Forked fabric workers inherit the wrappers,
reset the inherited state, and write their own file when they exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import wraps
from typing import Callable, Dict, List

#: Layers whose individual calls are kept as spans (the rest are
#: per-slot hot paths, kept as counts and times only).
SPAN_LAYERS = frozenset({
    "graphs.build", "graphs.facts", "sim.run", "sim.setup_probe",
    "lowerbounds.analysis", "faults.plan",
})
MAX_SPANS = 200_000


def _returns_at_once(ctx):
    """A protocol that finishes before its first slot."""
    return None
    yield  # pragma: no cover - makes this a generator function


class Tracer:
    """Per-process span and counter store."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.reset()

    def reset(self) -> None:
        self.stack: List[list] = []  # open frames: [name, start, child_s]
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[tuple] = []
        self.suspended = 0

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def account(
        self, name: str, start: float, end: float, child_s: float = 0.0
    ) -> None:
        """Record one finished call of layer ``name`` that spent
        ``child_s`` of its duration in nested wrapped calls."""
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if name in SPAN_LAYERS and len(self.spans) < MAX_SPANS:
            self.spans.append((name, start, end, parent and parent[0]))

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if tracer.suspended or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.account(name, frame[1], end, frame[2])

        return wrapper

    def dump(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "pid": os.getpid(),
                "self_s": self.self_s,
                "total_s": self.total_s,
                "calls": self.calls,
                "counts": self.counts,
                "spans": self.spans,
            }, handle)


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _wrap_method(tracer: Tracer, cls, attr: str, name: str) -> None:
    if attr in vars(cls):
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr]))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _run_trials_wrapper(tracer: Tracer, original: Callable) -> Callable:
    """Time ``run_trials``, preceded by its setup probe: the same call
    with a protocol that returns at once.  The probe is untraced and is
    not part of ``sim.run``."""
    timed = tracer.wrap("sim.run", original)
    clock = time.perf_counter

    @wraps(original)
    def run_trials(*args, **kwargs):
        if tracer.suspended:
            return original(*args, **kwargs)
        probe_args, probe_kwargs = list(args), dict(kwargs)
        if len(probe_args) > 2:
            probe_args[2] = _returns_at_once
        else:
            probe_kwargs["protocol_factory"] = _returns_at_once
        tracer.suspended += 1
        start = clock()
        try:
            original(*probe_args, **probe_kwargs)
        finally:
            tracer.suspended -= 1
        tracer.account("sim.setup_probe", start, clock())
        start = clock()
        results = timed(*args, **kwargs)
        elapsed = clock() - start
        tracer.count("sim.batches")
        tracer.count("sim.trials", len(results))
        tracer.count("sim.slots", sum(r.duration for r in results))
        tracer.count("sim.gen_entries", sum(r.gen_entries for r in results))
        config = kwargs.get("exec_config")
        if config is not None and config.lockstep:
            ok = sum(1 for r in results if r.soa_reason == "ok")
            tracer.count("lockstep.trials", len(results))
            tracer.count("lockstep.soa_ok_trials", ok)
            if ok < len(results):
                tracer.count("lockstep.fallback_batches")
                tracer.count("lockstep.fallback_s", elapsed)
        return results

    return run_trials


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; call once, before any run starts."""
    import repro.cli  # noqa: F401 - loads every module the CLI binds
    import repro.graphs
    import repro.lowerbounds
    from repro.campaign import cells, registry
    from repro.campaign.fabric import workers
    from repro.sim import batch, faults, models, observers, trace

    for family, build in list(registry.GRAPH_FAMILIES.items()):
        registry.GRAPH_FAMILIES[family] = tracer.wrap("graphs.build", build)
    _rebind(repro.graphs.clique, tracer.wrap("graphs.build", repro.graphs.clique))
    _rebind(cells.knowledge_for, tracer.wrap("graphs.facts", cells.knowledge_for))
    _rebind(batch.run_trials, _run_trials_wrapper(tracer, batch.run_trials))
    for analysis in (
        repro.lowerbounds.energy_before_reception,
        repro.lowerbounds.derive_leader_election,
    ):
        _rebind(analysis, tracer.wrap("lowerbounds.analysis", analysis))
    for cls in (models.ChannelModel, *_subclasses(models.ChannelModel)):
        _wrap_method(tracer, cls, "resolve_count", "models.classify")
        _wrap_method(tracer, cls, "resolve_count_array", "models.classify")
    _wrap_method(tracer, observers.EnergyObserver, "on_slot", "observers.energy")
    _wrap_method(tracer, trace.Trace, "record", "trace.record")
    _wrap_method(tracer, faults.FaultPlan, "for_trial", "faults.plan")

    worker_main = workers.fabric_worker_main

    @wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        tracer.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            tracer.dump()

    workers.fabric_worker_main = traced_worker_main


def merge(out_dir: str) -> Dict[str, Dict]:
    """Sum the per-process trace files of one traced run."""
    total: Dict[str, Dict] = {
        "self_s": {}, "total_s": {}, "calls": {}, "counts": {},
    }
    for entry in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, entry), encoding="utf-8") as handle:
            data = json.load(handle)
        for key, sums in total.items():
            for name, value in data[key].items():
                sums[name] = sums.get(name, 0) + value
    return total
