"""Tests for Section 3: Learn-degree, Two-Hop-Coloring, LOCAL simulation."""

from __future__ import annotations

import pytest

from repro.broadcast import run_broadcast
from repro.broadcast.local_sim import local_sim_broadcast_protocol
from repro.core.coloring import (
    ColoringParams,
    coloring_preprocess,
    learn_degree,
    simulate_local,
)
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.sim import NO_CD, Simulator
from repro.sim.actions import Idle, Listen, Send

from tests.conftest import knowledge_for


def _two_hop_conflicts(graph, colors):
    """Count pairs within distance <= 2 sharing a color."""
    conflicts = 0
    for v in range(graph.n):
        near = set()
        for u in graph.neighbors(v):
            near.add(u)
            near.update(graph.neighbors(u))
        near.discard(v)
        conflicts += sum(1 for u in near if colors[u] == colors[v])
    return conflicts // 2


class TestLearnDegree:
    def test_all_neighbors_learned_on_cycle(self):
        g = cycle_graph(10)
        params = ColoringParams(max_degree=2, n=g.n)

        def proto(ctx):
            my_id = 1000 + ctx.index
            heard = yield from learn_degree(ctx, params, my_id)
            return heard

        result = Simulator(g, NO_CD, seed=1).run(proto)
        for v in range(g.n):
            expected = {1000 + u for u in g.neighbors(v)}
            assert result.outputs[v] == expected

    def test_degree_matches(self):
        g = grid_graph(3, 3)
        params = ColoringParams(max_degree=4, n=g.n)

        def proto(ctx):
            heard = yield from learn_degree(ctx, params, ctx.index)
            return len(heard)

        result = Simulator(g, NO_CD, seed=2).run(proto)
        assert result.outputs == [g.degree(v) for v in range(g.n)]

    def test_single_edge_learns_both_ids(self):
        # At Delta = 1 a 1/Delta transmit probability would have both
        # endpoints send in every slot; neither would ever hear the other.
        g = path_graph(2)
        params = ColoringParams(max_degree=1, n=g.n)

        def proto(ctx):
            heard = yield from learn_degree(ctx, params, 1000 + ctx.index)
            return heard

        for seed in range(20):
            result = Simulator(g, NO_CD, seed=seed).run(proto)
            assert result.outputs == [{1001}, {1000}], seed

    def test_bounded_row_delivers_at_its_minimum_size(self):
        from repro.campaign.registry import execute_cell_block

        cells = execute_cell_block("bounded", 2, tuple(range(20)), {})
        assert sum(cell.delivered for cell in cells) == 19


class TestTwoHopColoring:
    @pytest.mark.parametrize("maker,seed", [(lambda: cycle_graph(12), 3),
                                            (lambda: grid_graph(3, 4), 5),
                                            (lambda: path_graph(9), 7)])
    def test_produces_proper_two_hop_coloring(self, maker, seed):
        g = maker()
        params = ColoringParams(max_degree=g.max_degree, n=g.n)

        def proto(ctx):
            color, neighbor_colors = yield from coloring_preprocess(ctx, params)
            return color

        colors = Simulator(g, NO_CD, seed=seed).run(proto).outputs
        assert _two_hop_conflicts(g, colors) == 0
        assert all(0 <= c < params.num_colors for c in colors)

    def test_neighbor_color_maps_are_consistent(self):
        g = cycle_graph(8)
        params = ColoringParams(max_degree=2, n=g.n)

        def proto(ctx):
            out = yield from coloring_preprocess(ctx, params)
            return out

        result = Simulator(g, NO_CD, seed=4).run(proto)
        colors = [out[0] for out in result.outputs]
        for v in range(g.n):
            _, neighbor_colors = result.outputs[v]
            assert sorted(neighbor_colors.values()) == sorted(
                colors[u] for u in g.neighbors(v)
            )


class TestSimulateLocal:
    def test_tdma_flood_matches_local_flood(self):
        # Simulate a trivial LOCAL flooding protocol through the TDMA layer
        # and check every vertex learns the message at the right round.
        g = cycle_graph(9)
        params = ColoringParams(max_degree=2, n=g.n)

        def inner_flood(ctx):
            payload = "m" if ctx.inputs.get("source") else None
            for _ in range(g.n):
                if payload is not None:
                    yield Send(payload)
                    break
                feedback = yield Listen()
                if feedback:
                    payload = feedback[0]
            return payload

        def proto(ctx):
            color, neighbor_colors = yield from coloring_preprocess(ctx, params)
            result = yield from simulate_local(
                ctx, inner_flood(ctx), params.num_colors, color, neighbor_colors
            )
            return result

        result = Simulator(g, NO_CD, seed=6).run(
            proto, inputs={0: {"source": True}}
        )
        assert result.outputs == ["m"] * g.n

    def test_idle_actions_cost_nothing_in_simulation(self):
        g = path_graph(3)
        params = ColoringParams(max_degree=2, n=g.n)

        def inner(ctx):
            yield Idle(5)
            return "ok"

        def proto(ctx):
            color, neighbor_colors = yield from coloring_preprocess(ctx, params)
            pre_energy = ctx.time  # slots so far are all preprocessing
            out = yield from simulate_local(
                ctx, inner(ctx), params.num_colors, color, neighbor_colors
            )
            return (out, pre_energy)

        result = Simulator(g, NO_CD, seed=1).run(proto)
        assert all(out[0] == "ok" for out in result.outputs)


class TestCorollary13:
    def test_broadcast_on_path(self):
        g = path_graph(10)
        out = run_broadcast(
            g, NO_CD, local_sim_broadcast_protocol(failure=0.01),
            knowledge=knowledge_for(g), seed=4,
        )
        assert out.delivered

    def test_broadcast_on_cycle(self):
        g = cycle_graph(11)
        out = run_broadcast(
            g, NO_CD, local_sim_broadcast_protocol(failure=0.01),
            knowledge=knowledge_for(g), seed=8,
        )
        assert out.delivered

    def test_energy_beats_direct_nocd_clustering(self):
        # Corollary 13's point: on bounded-degree graphs, simulating the
        # LOCAL algorithm is more energy-frugal than running the No-CD
        # clustering algorithm natively.
        from repro.broadcast import cluster_broadcast_protocol, theorem11_params

        g = path_graph(12)
        k = knowledge_for(g)
        sim_out = run_broadcast(
            g, NO_CD, local_sim_broadcast_protocol(failure=0.01),
            knowledge=k, seed=3,
        )
        native = run_broadcast(
            g, NO_CD,
            cluster_broadcast_protocol(theorem11_params(g.n, "No-CD", failure=0.01)),
            knowledge=k, seed=3,
        )
        assert sim_out.delivered and native.delivered
        assert sim_out.max_energy < native.max_energy
