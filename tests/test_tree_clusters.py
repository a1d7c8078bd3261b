"""Tests for the Section 7 colored tree transmissions."""

from __future__ import annotations

import random

from repro.core.tree_clusters import (
    TreeParams,
    learn_ind,
    sample_colors,
    tree_down_cast,
    tree_downward,
    tree_up_cast,
    tree_upward,
)
from repro.graphs import path_graph, star_graph
from repro.sim import CD, Simulator


def _colors_for(graph, params, seed=42, distinct=True):
    """Assign color tuples; with distinct=True force pairwise-distinct
    per-coloring colors so Ind always exists (test determinism)."""
    rng = random.Random(seed)
    if not distinct:
        return {v: sample_colors(rng, params) for v in range(graph.n)}
    colors = {}
    for v in range(graph.n):
        colors[v] = tuple(
            (v * 7 + j) % params.num_colors for j in range(params.num_colorings)
        )
    return colors


class TestLearnIndAndDownward:
    def test_path_chain_parents(self):
        # Path 0-1-2 rooted at 0: 1's parent is 0, 2's parent is 1.
        g = path_graph(3)
        params = TreeParams.for_graph(g.n, 2, xi=1.0)
        colors = _colors_for(g, params)
        parents = {0: None, 1: 0, 2: 1}

        def proto(ctx):
            parent = parents[ctx.index]
            parent_colors = colors[parent] if parent is not None else None
            ind = yield from learn_ind(ctx, params, colors[ctx.index], parent_colors)
            return ind

        result = Simulator(g, CD, seed=0).run(proto)
        assert result.outputs[0] is None
        assert result.outputs[1] is not None
        assert result.outputs[2] is not None

    def test_downward_delivers_to_children_only(self):
        g = star_graph(4)
        params = TreeParams.for_graph(g.n, g.max_degree, xi=1.0)
        colors = _colors_for(g, params)

        def proto(ctx):
            if ctx.index == 0:
                out = yield from tree_downward(
                    ctx, params, colors[0], None, None, "m", False
                )
            else:
                ind = 0  # colors are distinct by construction
                out = yield from tree_downward(
                    ctx, params, colors[ctx.index], colors[0], ind, None, True
                )
            return out

        result = Simulator(g, CD, seed=1).run(proto)
        assert result.outputs[1:] == ["m", "m", "m"]

    def test_downward_sender_energy_is_c(self):
        g = path_graph(2)
        params = TreeParams.for_graph(g.n, 2, xi=1.0)
        colors = _colors_for(g, params)

        def proto(ctx):
            if ctx.index == 0:
                yield from tree_downward(
                    ctx, params, colors[0], None, None, "m", False
                )
            else:
                yield from tree_downward(
                    ctx, params, colors[1], colors[0], 0, None, True
                )
            return None

        result = Simulator(g, CD, seed=0).run(proto)
        assert result.energy[0].total == params.num_colorings
        assert result.energy[1].total == 1  # one tuned listen


class TestUpward:
    def test_parent_receives_from_contending_children(self):
        g = star_graph(5)
        params = TreeParams.for_graph(g.n, g.max_degree, xi=1.0, failure=0.02)
        colors = _colors_for(g, params)

        def proto(ctx):
            if ctx.index == 0:
                out = yield from tree_upward(
                    ctx, params, colors[0], None, None, None, True
                )
            else:
                out = yield from tree_upward(
                    ctx, params, colors[ctx.index], colors[0], 0,
                    f"c{ctx.index}", False,
                )
            return out

        delivered = 0
        for seed in range(5):
            result = Simulator(g, CD, seed=seed).run(proto)
            if result.outputs[0] in ("c1", "c2", "c3", "c4"):
                delivered += 1
        assert delivered >= 4

    def test_bystander_energy_small(self):
        # A parent with no sending children pays only probe-level energy.
        g = path_graph(3)  # 0-1-2; 0 listens, 2 sends to parent 1... none
        params = TreeParams.for_graph(g.n, 2, xi=1.0, failure=0.05)
        colors = _colors_for(g, params)

        def proto(ctx):
            if ctx.index == 0:
                out = yield from tree_upward(
                    ctx, params, colors[0], None, None, None, True
                )
                return out
            yield from tree_upward(
                ctx, params, colors[ctx.index], None, None, None, False
            )
            return None

        result = Simulator(g, CD, seed=0).run(proto)
        # listener probes c blocks at <= 2 energy each.
        assert result.energy[0].total <= 2 * params.num_colorings


class TestTreeCasts:
    def test_down_cast_washes_down_chain(self):
        g = path_graph(4)
        params = TreeParams.for_graph(g.n, 2, xi=1.0)
        colors = _colors_for(g, params)
        layers = [0, 1, 2, 3]
        parents = {0: None, 1: 0, 2: 1, 3: 2}

        def proto(ctx):
            parent = parents[ctx.index]
            value = "m" if ctx.index == 0 else None
            out = yield from tree_down_cast(
                ctx, params, layers[ctx.index], value, 4,
                colors[ctx.index],
                colors[parent] if parent is not None else None,
                0 if parent is not None else None,
                transform=lambda m: m,
            )
            return out

        result = Simulator(g, CD, seed=0).run(proto)
        assert result.outputs == ["m"] * 4

    def test_up_cast_reaches_root(self):
        g = path_graph(3)
        params = TreeParams.for_graph(g.n, 2, xi=1.0, failure=0.02)
        colors = _colors_for(g, params)
        layers = [0, 1, 2]
        parents = {0: None, 1: 0, 2: 1}

        def proto(ctx):
            parent = parents[ctx.index]
            value = "leaf" if ctx.index == 2 else None
            out = yield from tree_up_cast(
                ctx, params, layers[ctx.index], value, 3,
                colors[ctx.index],
                colors[parent] if parent is not None else None,
                0 if parent is not None else None,
                transform=lambda m: m,
            )
            return out

        delivered = sum(
            Simulator(g, CD, seed=s).run(proto).outputs[0] == "leaf"
            for s in range(4)
        )
        assert delivered >= 3
