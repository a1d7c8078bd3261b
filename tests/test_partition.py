"""Tests for Partition(beta) (Section 6, Lemmas 14-15)."""

from __future__ import annotations

import statistics

import pytest

from repro.core.partition import (
    PartitionParams,
    partition_once,
    partition_result_clusters,
)
from repro.core.schemes import SRScheme
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.sim import NO_CD, Simulator


def _run_partition(graph, beta, seed, failure=0.02):
    params = PartitionParams(beta=beta, n=graph.n, failure=failure)
    scheme = SRScheme("No-CD", max(graph.max_degree, 1), failure=failure)

    def proto(ctx):
        out = yield from partition_once(ctx, scheme, params)
        return out

    return Simulator(graph, NO_CD, seed=seed).run(proto).outputs


class TestPartitionBasics:
    def test_every_vertex_clustered(self):
        outputs = _run_partition(cycle_graph(16), 0.3, seed=1)
        assert all(cluster is not None for cluster, _, _ in outputs)

    def test_centers_have_layer_zero_and_unique_tags(self):
        outputs = _run_partition(grid_graph(4, 4), 0.3, seed=2)
        members, layers = partition_result_clusters(outputs)
        for v, (cluster, layer, is_center) in enumerate(outputs):
            if is_center:
                assert layer == 0
        # Tags of distinct clusters differ (64-bit random tags).
        assert len(members) == len(set(members))

    def test_layers_form_good_labeling_within_clusters(self):
        graph = grid_graph(4, 4)
        outputs = _run_partition(graph, 0.4, seed=3)
        # Every non-center vertex has a same-cluster neighbor one layer
        # closer to the center.
        for v, (cluster, layer, is_center) in enumerate(outputs):
            if layer > 0:
                assert any(
                    outputs[u][0] == cluster and outputs[u][1] == layer - 1
                    for u in graph.neighbors(v)
                ), f"vertex {v} has no in-cluster parent"

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PartitionParams(beta=0.0, n=8)
        with pytest.raises(ValueError):
            PartitionParams(beta=1.5, n=8)

    def test_epoch_count_scales_inverse_beta(self):
        fast = PartitionParams(beta=0.5, n=64)
        slow = PartitionParams(beta=0.1, n=64)
        assert slow.epochs > fast.epochs


class TestLemma14EdgeCutProbability:
    def test_cut_probability_scales_with_beta(self):
        # Lemma 14(1): Pr[edge cut] <= ~2 beta.  Check monotonicity and a
        # generous absolute bound on the cycle.
        graph = cycle_graph(32)
        rates = {}
        for beta in (0.15, 0.5):
            cut = 0
            total = 0
            for seed in range(6):
                outputs = _run_partition(graph, beta, seed=seed)
                clusters = [c for c, _, _ in outputs]
                for u, v in graph.edges:
                    total += 1
                    if clusters[u] != clusters[v]:
                        cut += 1
            rates[beta] = cut / total
        assert rates[0.15] < rates[0.5]
        assert rates[0.15] <= 2.5 * 0.15 + 0.1


class TestLemma15DiameterShrink:
    def test_cluster_count_grows_with_beta(self):
        graph = cycle_graph(40)
        counts = {}
        for beta in (0.1, 0.6):
            sizes = []
            for seed in range(4):
                outputs = _run_partition(graph, beta, seed=seed)
                members, _ = partition_result_clusters(outputs)
                sizes.append(len(members))
            counts[beta] = statistics.mean(sizes)
        assert counts[0.1] < counts[0.6]

    def test_cluster_graph_diameter_shrinks(self):
        # Contracting clusters of a path must shrink hop distance markedly.
        graph = path_graph(48)
        beta = 0.25
        for seed in range(3):
            outputs = _run_partition(graph, beta, seed=seed)
            clusters = [c for c, _, _ in outputs]
            # Path cluster graph diameter = #distinct consecutive runs - 1.
            runs = 1
            for i in range(1, graph.n):
                if clusters[i] != clusters[i - 1]:
                    runs += 1
            assert runs - 1 <= max(4, 3 * beta * (graph.n - 1))
