"""Tests for the batched-trial execution layer (repro.sim.batch)."""

from __future__ import annotations

import random

import pytest

from repro.broadcast import run_broadcast, run_broadcast_trials
from repro.broadcast.flooding import decay_broadcast_protocol
from repro.graphs import clique, path_graph, random_gnp
from repro.sim import (
    NO_CD,
    ContentionHistogramObserver,
    ExecutionConfig,
    FaultPlan,
    Idle,
    Knowledge,
    Listen,
    Send,
    Simulator,
    numpy_available,
    run_trials,
)
from repro.sim.models import LossyModel


def _chatter(ctx):
    for _ in range(6):
        if ctx.rng.random() < 0.4:
            yield Send(("m", ctx.index))
        elif ctx.rng.random() < 0.5:
            yield Listen()
        else:
            yield Idle(2)
    return ctx.rng.random()


class TestRunTrials:
    def test_matches_per_seed_simulators(self):
        graph = random_gnp(8, 0.4, random.Random(1))
        seeds = [0, 3, 7, 11]
        batched = run_trials(graph, NO_CD, _chatter, seeds)
        assert [r.seed for r in batched] == seeds
        for seed, result in zip(seeds, batched):
            solo = Simulator(graph, NO_CD, seed=seed).run(_chatter)
            assert result.outputs == solo.outputs
            assert result.duration == solo.duration
            assert [e.total for e in result.energy] == [
                e.total for e in solo.energy
            ]
            assert result.finish_slot == solo.finish_slot

    def test_empty_seed_list(self):
        assert run_trials(path_graph(2), NO_CD, _chatter, []) == []

    def test_model_factory_gives_fresh_channel_state_per_trial(self):
        graph = path_graph(5)
        factory = lambda seed: LossyModel(NO_CD, 0.4, seed=seed)
        batched = run_trials(
            graph, NO_CD, _chatter, [2, 5],
            exec_config=ExecutionConfig(model_factory=factory),
        )
        for seed, result in zip([2, 5], batched):
            solo = Simulator(graph, factory(seed), seed=seed).run(_chatter)
            assert result.outputs == solo.outputs

    def test_trials_are_independent_of_batch_order(self):
        graph = path_graph(6)
        a = run_trials(graph, NO_CD, _chatter, [4, 9])
        b = run_trials(graph, NO_CD, _chatter, [9, 4])
        assert a[0].outputs == b[1].outputs
        assert a[1].outputs == b[0].outputs


class TestPerTrialProductsBuiltOnce:
    """Whichever executor runs a batch, each seed's factory products and
    fault realization are built exactly once, and the executor uses
    those instances."""

    BURST = "p_gb=0.2,p_bg=0.4"
    # path -> (extra config fields, expected soa_reason)
    PATHS = {
        "serial": (dict(burst_loss=BURST), None),
        "soa": (
            dict(lockstep=True, resolution="numpy", burst_loss=BURST), "ok"
        ),
        "fallback": (
            dict(lockstep=True, resolution="numpy", jam="periodic:period=3"),
            "jammer",
        ),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_factories_and_faults_once_per_seed(self, path, monkeypatch):
        fields, reason = self.PATHS[path]
        if fields.get("resolution") == "numpy" and not numpy_available():
            pytest.skip("the SoA engine needs numpy")
        graph = clique(6)
        seeds = [3, 1, 4]
        calls = {"model": [], "observer": [], "faults": []}
        observers = {}
        for_trial = FaultPlan.for_trial

        def counting_for_trial(plan, model, seed):
            calls["faults"].append(seed)
            return for_trial(plan, model, seed)

        def model_factory(seed):
            calls["model"].append(seed)
            return NO_CD

        def observer_factory(seed):
            calls["observer"].append(seed)
            observers[seed] = ContentionHistogramObserver(graph)
            return (observers[seed],)

        monkeypatch.setattr(FaultPlan, "for_trial", counting_for_trial)
        results = run_trials(
            graph, NO_CD, _chatter, seeds,
            exec_config=ExecutionConfig(
                model_factory=model_factory,
                observer_factory=observer_factory,
                **fields,
            ),
        )
        assert [r.soa_reason for r in results] == [reason] * len(seeds)
        assert calls == {"model": seeds, "observer": seeds, "faults": seeds}
        # The executor fed the very observers the factory built.
        assert all(observers[s].active_slots > 0 for s in seeds)


class TestRunBroadcastTrials:
    def test_matches_run_broadcast(self):
        graph = path_graph(8)
        knowledge = Knowledge(n=8, max_degree=2, diameter=7)
        protocol = decay_broadcast_protocol(failure=0.02)
        seeds = (0, 1, 2)
        batch = run_broadcast_trials(
            graph, NO_CD, protocol, seeds, knowledge=knowledge
        )
        assert len(batch) == len(seeds)
        for seed, outcome in zip(seeds, batch):
            solo = run_broadcast(
                graph, NO_CD, protocol, seed=seed, knowledge=knowledge
            )
            assert outcome.delivered == solo.delivered
            assert outcome.duration == solo.duration
            assert outcome.max_energy == solo.max_energy
            assert outcome.informed == solo.informed

    def test_sweep_and_sharded_cells_agree(self):
        """The serial sweep (multi-seed batch) and the campaign path
        (single-seed batches) reduce to identical CellResults."""
        from repro.campaign.cells import knowledge_for, run_cells

        graph = path_graph(8)
        protocol = decay_broadcast_protocol(failure=0.02)
        knowledge = knowledge_for(graph)
        seeds = (0, 1, 2)
        batched = run_cells(
            graph, NO_CD, protocol,
            label="row", size=8, seeds=seeds, knowledge=knowledge,
        )
        for seed, cell in zip(seeds, batched):
            (solo,) = run_cells(
                graph, NO_CD, protocol,
                label="row", size=8, seeds=(seed,), knowledge=knowledge,
            )
            assert cell == solo
