"""Batched trial execution: one prepared simulator, many seeds.

Every sweep in the repo — Table 1 rows, ablations, campaigns — runs the
same (graph, model, protocol) cell across a list of seeds.  Constructing a
fresh :class:`~repro.sim.engine.Simulator` per seed re-did the per-graph
setup (uid validation, knowledge defaults, resolution-backend build)
every time; :func:`run_trials` does it once and reuses the engine, so
per-trial overhead is just the run itself.

Two executors share this entry point:

* **serial** (default) — one engine replayed seed after seed; and
* **lock-step** (``lockstep=True``) — a dispatch: batches the trial-SoA
  engine can vectorize (:func:`repro.sim.trialsoa.soa_fallback_reason`
  returns None) advance all seeds together as ``[trial, node]`` arrays
  (:mod:`repro.sim.trialsoa`); every other batch runs on the serial
  engine, seed after seed.  Every lock-step result records the verdict
  in ``SimResult.soa_reason``.  Results are byte-identical either way.

Both sweep drivers ride on this core: the serial
:func:`repro.experiments.harness.sweep` driver batches all seeds of a
size through one call, and the sharded campaign path
(:mod:`repro.campaign.cells`) runs seed-block batches — same code,
parallelism layered on top.
"""

from __future__ import annotations

import warnings
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.graphs.graph import Graph
from repro.sim.config import (
    ExecutionConfig,
    ExecutionConfigError,
    resolve_exec_config,
)
from repro.sim.engine import ProtocolFactory, Simulator, SimResult
from repro.sim.models import ChannelModel
from repro.sim.node import Knowledge
from repro.sim.observers import SlotObserver
from repro.sim.trialsoa import run_trials_soa, soa_fallback_reason

__all__ = ["run_trials"]

_warned_stateful_reuse = False


def _warn_stateful_reuse(model: ChannelModel) -> None:
    """Warn (once per process) about the shared-stateful-model footgun:
    a stateful channel reused across seeds carries its rng state from
    trial to trial, so individual trials are not independently
    reproducible from their seed alone."""
    global _warned_stateful_reuse
    if _warned_stateful_reuse:
        return
    _warned_stateful_reuse = True
    warnings.warn(
        f"stateful channel model {model.name!r} is shared across trials; "
        f"its internal rng state carries over from seed to seed.  Pass "
        f"model_factory=lambda seed: ... to give every trial fresh, "
        f"seed-reproducible channel state.",
        RuntimeWarning,
        stacklevel=3,
    )


def run_trials(
    graph: Graph,
    model: ChannelModel,
    protocol_factory: ProtocolFactory,
    seeds: Sequence[int],
    *,
    inputs: Optional[Dict[int, Dict[str, Any]]] = None,
    knowledge: Optional[Knowledge] = None,
    uids: Optional[Sequence[int]] = None,
    exec_config: Optional[ExecutionConfig] = None,
) -> List[SimResult]:
    """Run one protocol cell once per seed, amortizing setup.

    Args:
        seeds: master seeds, one trial each; results come back in the
            same order (each :class:`SimResult` carries its seed).
        exec_config: how the batch executes
            (:class:`~repro.sim.config.ExecutionConfig`).  This layer
            consumes ``lockstep`` (the trial-SoA engine when the batch
            is eligible, else the serial engine; byte-identical
            results), ``observer_factory`` (per-seed observer constructor,
            ``seed -> sequence of SlotObservers``), and ``model_factory``
            (per-seed model constructor for stateful channels, e.g.
            ``lambda seed: LossyModel(NO_CD, 0.1, seed)`` — when
            omitted, all trials share ``model``; sharing a *stateful*
            model across several seeds warns once).  ``contention_hist``
            is rejected: its histogram summary has nowhere to go in a
            plain result list — use :func:`repro.campaign.cells.run_cells`
            or :func:`repro.experiments.harness.sweep`.

    Returns:
        One :class:`SimResult` per seed, in ``seeds`` order.
    """
    config = resolve_exec_config(exec_config)
    if config.contention_hist:
        raise ExecutionConfigError(
            "contention_hist is consumed by run_cells()/sweep(), which fold "
            "the histogram summary into cell extras; run_trials has no "
            "extras channel — pass observer_factory= instead"
        )
    if (
        config.model_factory is None
        and len(seeds) > 1
        and getattr(model, "stateful", False)
    ):
        if config.lockstep:
            # A shared stateful channel consumes rng in trial order; the
            # trial axis would interleave trials per slot.  Refuse
            # rather than depend on which executor the batch lands on.
            raise ExecutionConfigError(
                f"lockstep=True cannot share stateful model {model.name!r} "
                f"across trials (rng consumption order would change); pass "
                f"model_factory=lambda seed: ... for per-trial channel state"
            )
        _warn_stateful_reuse(model)

    simulator = Simulator(
        graph,
        model,
        knowledge=knowledge,
        uids=uids,
        # The batch-level fields are consumed right here, not by the engine.
        exec_config=config.replace(
            lockstep=False, observer_factory=None, model_factory=None
        ),
    )
    trials = _trials(simulator, config, seeds)
    if not config.lockstep:
        return _run_serial(simulator, protocol_factory, inputs, seeds, trials)

    # Lock-step: build every trial before dispatch, so each per-seed
    # factory product and fault realization exists once and the same
    # instances run on whichever executor the verdict picks.
    trials = list(trials)
    models = [trial_model for trial_model, _, _ in trials]
    trial_models = None if all(m is model for m in models) else models
    churns = [churn for _, churn, _ in trials]
    trial_churn = None if all(c is None for c in churns) else churns
    trial_observers = (
        None if config.observer_factory is None
        else [extra for _, _, extra in trials]
    )
    reason = soa_fallback_reason(
        model, config, simulator.backend, trial_models, trial_observers
    )
    if reason is None and seeds:
        results = run_trials_soa(
            simulator, protocol_factory, seeds, inputs,
            trial_models=trial_models, trial_observers=trial_observers,
            trial_churn=trial_churn,
        )
    else:
        # The serial loop itself, not run_trials: a batch is one call.
        results = _run_serial(
            simulator, protocol_factory, inputs, seeds, trials
        )
    for result in results:
        result.soa_reason = reason or "ok"
    return results


def _trials(
    simulator: Simulator,
    config: ExecutionConfig,
    seeds: Sequence[int],
) -> Iterator[Tuple[ChannelModel, Any, Tuple[SlotObserver, ...]]]:
    """Yield each seed's ``(model, churn, observers)``, in seed order:
    its ``model_factory`` product (or the shared model) with the fault
    plan realized on it, and its ``observer_factory`` products."""
    for seed in seeds:
        model = (
            simulator.model if config.model_factory is None
            else config.model_factory(seed)
        )
        extra = (
            () if config.observer_factory is None
            else tuple(config.observer_factory(seed))
        )
        yield (*simulator.setup.faults(model, seed), extra)


def _run_serial(
    simulator: Simulator,
    protocol_factory: ProtocolFactory,
    inputs: Optional[Dict[int, Dict[str, Any]]],
    seeds: Sequence[int],
    trials: Iterable[Tuple[ChannelModel, Any, Tuple[SlotObserver, ...]]],
) -> List[SimResult]:
    """The serial engine, one trial after another."""
    return [
        simulator.run_trial(protocol_factory, inputs, seed, *trial)
        for seed, trial in zip(seeds, trials)
    ]
