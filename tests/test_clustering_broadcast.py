"""Integration tests for Section 5: refinement + Theorem 11/12 broadcast."""

from __future__ import annotations

import pytest

from repro.broadcast import (
    cluster_broadcast_protocol,
    run_broadcast,
    theorem11_params,
    theorem12_params,
)
from repro.core.clustering import refine_labeling
from repro.core.labeling import is_good_labeling, layer_zero
from repro.core.schemes import SRScheme
from repro.core.sr_comm import CDParams, DecayParams
from repro.graphs import cycle_graph, grid_graph, path_graph, random_gnp, star_graph
from repro.sim import CD, LOCAL, NO_CD, Simulator

from tests.conftest import knowledge_for


class TestRefinement:
    def _refine_n_times(self, graph, model, model_name, rounds, seed=0, p=0.5, s=1):
        scheme = SRScheme(model_name, max(graph.max_degree, 1), failure=0.01)

        def proto(ctx):
            label = 0
            for _ in range(rounds):
                label = yield from refine_labeling(
                    ctx, scheme, label, survive_p=p, spread_s=s,
                    max_layers=ctx.n,
                )
            return label

        return Simulator(graph, model, seed=seed).run(proto).outputs

    def test_single_refinement_keeps_goodness(self):
        g = grid_graph(3, 3)
        labels = self._refine_n_times(g, LOCAL, "LOCAL", 1, seed=2)
        assert is_good_labeling(g, labels)

    def test_roots_thin_out(self):
        g = cycle_graph(16)
        one = self._refine_n_times(g, LOCAL, "LOCAL", 1, seed=1)
        many = self._refine_n_times(g, LOCAL, "LOCAL", 6, seed=1)
        assert len(layer_zero(many)) <= len(layer_zero(one))
        assert len(layer_zero(many)) >= 1

    def test_converges_to_single_root_local(self):
        g = grid_graph(4, 4)
        labels = self._refine_n_times(g, LOCAL, "LOCAL", 30, seed=3)
        assert is_good_labeling(g, labels)
        assert len(layer_zero(labels)) == 1

    def test_converges_in_nocd(self):
        g = path_graph(8)
        labels = self._refine_n_times(g, NO_CD, "No-CD", 20, seed=4)
        assert is_good_labeling(g, labels)
        assert len(layer_zero(labels)) == 1

    def test_always_at_least_one_root(self):
        g = star_graph(6)
        for seed in range(4):
            labels = self._refine_n_times(g, LOCAL, "LOCAL", 12, seed=seed)
            assert len(layer_zero(labels)) >= 1

    def test_spread_s_increases_absorption(self):
        # With s = n the whole graph is absorbed by any surviving root in
        # one refinement (cycle diameter < casts reach).
        g = cycle_graph(10)
        labels = self._refine_n_times(g, LOCAL, "LOCAL", 1, seed=5, p=0.3, s=10)
        assert is_good_labeling(g, labels)
        assert len(layer_zero(labels)) <= 4


class TestTheorem11:
    @pytest.mark.parametrize(
        "model,name",
        [(LOCAL, "LOCAL"), (CD, "CD"), (NO_CD, "No-CD")],
    )
    def test_broadcast_delivers(self, model, name):
        g = grid_graph(3, 4)
        params = theorem11_params(g.n, name, failure=0.01)
        out = run_broadcast(
            g, model, cluster_broadcast_protocol(params),
            knowledge=knowledge_for(g), seed=7,
        )
        assert out.delivered

    def test_broadcast_from_nonzero_source(self):
        g = path_graph(9)
        params = theorem11_params(g.n, "LOCAL", failure=0.01)
        out = run_broadcast(
            g, LOCAL, cluster_broadcast_protocol(params),
            knowledge=knowledge_for(g), source=4, seed=1,
        )
        assert out.delivered

    def test_final_labels_good_and_single_root(self):
        g = grid_graph(3, 3)
        params = theorem11_params(g.n, "LOCAL", failure=0.005)
        proto = cluster_broadcast_protocol(params, return_labels=True)
        sim = Simulator(g, LOCAL, seed=11)
        result = sim.run(proto, inputs={0: {"source": True, "payload": "m"}})
        payloads = [out[0] for out in result.outputs]
        labels = [out[1] for out in result.outputs]
        assert payloads == ["m"] * g.n
        assert is_good_labeling(g, labels)
        assert len(layer_zero(labels)) == 1

    def test_energy_beats_decay_baseline_on_wide_graph(self):
        from repro.broadcast import decay_broadcast_protocol

        g = grid_graph(4, 5)
        k = knowledge_for(g)
        params = theorem11_params(g.n, "LOCAL", failure=0.01)
        ours = run_broadcast(
            g, LOCAL, cluster_broadcast_protocol(params), knowledge=k, seed=2
        )
        baseline = run_broadcast(
            g, NO_CD, decay_broadcast_protocol(failure=0.01), knowledge=k, seed=2
        )
        assert ours.delivered and baseline.delivered
        assert ours.max_energy < baseline.max_energy

    def test_multiple_seeds_statistical(self, seeds):
        g = random_gnp(12, 0.25)
        k = knowledge_for(g)
        params = theorem11_params(g.n, "LOCAL", failure=0.01)
        delivered = sum(
            run_broadcast(
                g, LOCAL, cluster_broadcast_protocol(params), knowledge=k, seed=s
            ).delivered
            for s in seeds
        )
        assert delivered == len(seeds)


class TestTheorem12:
    def test_cd_tradeoff_delivers(self):
        g = random_gnp(12, 0.3)
        params = theorem12_params(g.n, epsilon=0.5, failure=0.01)
        out = run_broadcast(
            g, CD, cluster_broadcast_protocol(params),
            knowledge=knowledge_for(g), seed=9,
        )
        assert out.delivered

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            theorem12_params(64, epsilon=0.0)
        with pytest.raises(ValueError):
            theorem12_params(64, epsilon=1.5)

    def test_fewer_iterations_than_theorem11(self):
        p11 = theorem11_params(256, "CD")
        p12 = theorem12_params(256, epsilon=0.9)
        assert p12.iterations < p11.iterations
        assert p12.spread_s > p11.spread_s


class TestSchemeValidation:
    def test_bad_model_name(self):
        with pytest.raises(ValueError):
            SRScheme("bogus", 4)

    def test_probe_only_for_cd(self):
        with pytest.raises(ValueError):
            SRScheme("No-CD", 4, probe=True)

    def test_frame_lengths_positive(self):
        for name in ("LOCAL", "CD", "No-CD"):
            assert SRScheme(name, 8, failure=0.05).frame_length >= 1


class TestSchemeGeometry:
    """Each SRScheme builds its frame geometry once, not once per frame."""

    @pytest.mark.parametrize(
        "model,params",
        [(NO_CD, theorem11_params(9, "No-CD")), (CD, theorem12_params(9))],
        ids=["theorem11-nocd", "theorem12-cd"],
    )
    def test_for_graph_once_per_node(self, monkeypatch, model, params):
        calls = []

        def counting(params_cls):
            build = params_cls.for_graph.__func__

            def for_graph(cls, *args, **kwargs):
                calls.append(cls)
                return build(cls, *args, **kwargs)

            return classmethod(for_graph)

        for params_cls in (DecayParams, CDParams):
            monkeypatch.setattr(params_cls, "for_graph", counting(params_cls))
        g = grid_graph(3, 3)
        outcome = run_broadcast(
            g, model, cluster_broadcast_protocol(params), seed=1,
            knowledge=knowledge_for(g),
        )
        assert outcome.delivered
        # Every node builds one scheme; its frames reuse the geometry.
        assert 0 < len(calls) <= g.n
