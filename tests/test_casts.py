"""Tests for Down-cast / All-cast / Up-cast over good labelings (Lemma 10)."""

from __future__ import annotations

from repro.core.casts import all_cast, down_cast, up_cast
from repro.core.labeling import is_good_labeling
from repro.core.schemes import SRScheme
from repro.graphs import Graph, path_graph
from repro.sim import LOCAL, NO_CD, Simulator


def _scheme(model_name, delta, failure=0.01):
    return SRScheme(model_name, delta, failure=failure)


def _run_cast(graph, model, model_name, labels, values, cast, seed=0, **kwargs):
    scheme = _scheme(model_name, max(graph.max_degree, 1))
    max_layers = graph.n

    def proto(ctx):
        if cast is all_cast:
            out = yield from all_cast(ctx, scheme, values.get(ctx.index), **kwargs)
        else:
            out = yield from cast(
                ctx, scheme, labels[ctx.index], values.get(ctx.index),
                max_layers, **kwargs,
            )
        return out

    return Simulator(graph, model, seed=seed).run(proto)


class TestDownCast:
    def test_value_washes_down_all_layers_local(self):
        # Path labeled 0,1,2,3,4: one down-cast must inform everyone.
        g = path_graph(5)
        labels = [0, 1, 2, 3, 4]
        result = _run_cast(g, LOCAL, "LOCAL", labels, {0: "m"}, down_cast)
        assert result.outputs == ["m"] * 5

    def test_value_washes_down_nocd(self):
        g = path_graph(4)
        labels = [0, 1, 2, 3]
        result = _run_cast(g, NO_CD, "No-CD", labels, {0: "m"}, down_cast)
        assert result.outputs == ["m"] * 4

    def test_transform_applied_per_hop(self):
        g = path_graph(4)
        labels = [0, 1, 2, 3]
        result = _run_cast(
            g, LOCAL, "LOCAL", labels, {0: 0}, down_cast,
            transform=lambda m: m + 1,
        )
        assert result.outputs == [0, 1, 2, 3]

    def test_holders_keep_their_value(self):
        g = path_graph(3)
        labels = [0, 1, 2]
        result = _run_cast(g, LOCAL, "LOCAL", labels, {0: "a", 1: "b"}, down_cast)
        assert result.outputs[1] == "b"

    def test_no_upward_leak(self):
        # A value held only at layer 2 must not reach layer 0 via down-cast.
        g = path_graph(3)
        labels = [0, 1, 2]
        result = _run_cast(g, LOCAL, "LOCAL", labels, {2: "m"}, down_cast)
        assert result.outputs[0] is None
        assert result.outputs[1] is None

    def test_energy_constant_frames_per_node(self):
        # Every vertex participates in <= 2 frames regardless of n.
        g = path_graph(12)
        labels = list(range(12))
        scheme = _scheme("LOCAL", 2)
        result = _run_cast(g, LOCAL, "LOCAL", labels, {0: "m"}, down_cast)
        assert all(e.total <= 2 for e in result.energy)


class TestUpCast:
    def test_value_washes_up_local(self):
        g = path_graph(5)
        labels = [0, 1, 2, 3, 4]
        result = _run_cast(g, LOCAL, "LOCAL", labels, {4: "m"}, up_cast)
        assert result.outputs == ["m"] * 5

    def test_value_washes_up_nocd(self):
        g = path_graph(4)
        labels = [0, 1, 2, 3]
        result = _run_cast(g, NO_CD, "No-CD", labels, {3: "m"}, up_cast)
        assert result.outputs == ["m"] * 4

    def test_layer0_never_sends_in_upcast(self):
        g = path_graph(2)
        labels = [0, 1]
        result = _run_cast(g, LOCAL, "LOCAL", labels, {0: "m"}, up_cast)
        assert result.outputs[1] is None

    def test_midpath_injection_reaches_root_only(self):
        g = path_graph(4)
        labels = [0, 1, 2, 3]
        result = _run_cast(g, LOCAL, "LOCAL", labels, {2: "m"}, up_cast)
        assert result.outputs[0] == "m"
        assert result.outputs[1] == "m"
        assert result.outputs[3] is None


class TestAllCast:
    def test_single_frame_exchange(self):
        g = path_graph(3)
        result = _run_cast(g, LOCAL, "LOCAL", None, {1: "m"}, all_cast)
        assert result.outputs == ["m", "m", "m"]

    def test_non_adjacent_not_informed(self):
        g = path_graph(3)
        result = _run_cast(g, LOCAL, "LOCAL", None, {0: "m"}, all_cast)
        assert result.outputs[2] is None


class TestBranchingLabelings:
    def test_down_cast_on_tree_labeling(self):
        #     0
        #    / \
        #   1   2     labels = BFS depth; all leaves must learn.
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
        labels = [0, 1, 1, 2, 2]
        assert is_good_labeling(g, labels)
        result = _run_cast(g, LOCAL, "LOCAL", labels, {0: "m"}, down_cast)
        assert result.outputs == ["m"] * 5

    def test_up_cast_collects_some_leaf_value(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
        labels = [0, 1, 1, 2, 2]
        result = _run_cast(g, LOCAL, "LOCAL", labels, {3: "x", 4: "y"}, up_cast)
        assert result.outputs[0] in ("x", "y")
