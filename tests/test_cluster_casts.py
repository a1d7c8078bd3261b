"""Tests for the shared-seed cluster casts (Lemma 17 machinery)."""

from __future__ import annotations

from repro.core.cluster_casts import (
    cluster_all_cast,
    cluster_coin,
    cluster_down_cast,
    cluster_sr,
    cluster_up_cast,
)
from repro.core.schemes import SRScheme
from repro.core.sr_comm import Role
from repro.graphs import path_graph
from repro.sim import NO_CD, Simulator


class TestClusterCoin:
    def test_deterministic_given_inputs(self):
        a = cluster_coin(123, ("tag", 1), 0, 0.5)
        b = cluster_coin(123, ("tag", 1), 0, 0.5)
        assert a == b

    def test_varies_across_reps(self):
        outcomes = {cluster_coin(7, "t", rep, 0.5) for rep in range(64)}
        assert outcomes == {True, False}

    def test_probability_respected(self):
        hits = sum(cluster_coin(s, "x", 0, 0.25) for s in range(4000))
        assert 800 < hits < 1200


class TestClusterSR:
    def test_filtered_reception(self):
        # Sender of cluster A and receiver expecting cluster B: messages
        # rejected; receiver expecting A: accepted.
        g = path_graph(3)
        scheme = SRScheme("No-CD", 2, failure=0.02)

        def proto(ctx):
            if ctx.index == 1:
                out = yield from cluster_sr(
                    ctx, scheme, Role.SENDER, ("A", "payload"), 99, "t", 2, 6,
                    lambda m: True,
                )
            elif ctx.index == 0:
                out = yield from cluster_sr(
                    ctx, scheme, Role.RECEIVER, None, 1, "t", 2, 6,
                    lambda m: m[0] == "A",
                )
            else:
                out = yield from cluster_sr(
                    ctx, scheme, Role.RECEIVER, None, 2, "t", 2, 6,
                    lambda m: m[0] == "B",
                )
            return out

        result = Simulator(g, NO_CD, seed=1).run(proto)
        assert result.outputs[0] == ("A", "payload")
        assert result.outputs[2] is None

    def test_idle_role_costs_nothing(self):
        g = path_graph(2)
        scheme = SRScheme("No-CD", 2, failure=0.05)

        def proto(ctx):
            role = Role.IDLE
            out = yield from cluster_sr(
                ctx, scheme, role, None, 5, "t", 2, 4, lambda m: True
            )
            return out

        result = Simulator(g, NO_CD, seed=0).run(proto)
        assert all(e.total == 0 for e in result.energy)


class TestClusterLayeredCasts:
    def test_down_cast_stays_inside_cluster(self):
        # Path 0-1-2-3: cluster A = {0,1} labels 0,1; cluster B = {2,3}
        # labels 0,1.  A's root value must reach 1 but never 3.
        g = path_graph(4)
        scheme = SRScheme("No-CD", 2, failure=0.01)
        layers = [0, 1, 1, 0]
        cids = ["A", "A", "B", "B"]
        seeds = {"A": 11, "B": 22}

        def proto(ctx):
            value = "m" if ctx.index == 0 else None
            out = yield from cluster_down_cast(
                ctx, scheme, layers[ctx.index], cids[ctx.index],
                seeds[cids[ctx.index]], value, 2, 2, 8, "t",
                transform=lambda m: m,
            )
            return out

        result = Simulator(g, NO_CD, seed=2).run(proto)
        assert result.outputs[1] == "m"
        assert result.outputs[2] is None
        assert result.outputs[3] is None

    def test_up_cast_reaches_root(self):
        g = path_graph(3)
        scheme = SRScheme("No-CD", 2, failure=0.01)
        layers = [0, 1, 2]

        def proto(ctx):
            value = "leafmsg" if ctx.index == 2 else None
            out = yield from cluster_up_cast(
                ctx, scheme, layers[ctx.index], "C", 7, value, 3, 2, 8, "t",
                transform=lambda m: m,
            )
            return out

        result = Simulator(g, NO_CD, seed=3).run(proto)
        assert result.outputs[0] == "leafmsg"

    def test_all_cast_crosses_boundaries(self):
        g = path_graph(2)
        scheme = SRScheme("No-CD", 2, failure=0.01)

        def proto(ctx):
            if ctx.index == 0:
                out = yield from cluster_all_cast(
                    ctx, scheme, Role.SENDER, ("offer", 1), 5, 2, 8, "t",
                    lambda m: True,
                )
            else:
                out = yield from cluster_all_cast(
                    ctx, scheme, Role.RECEIVER, None, 6, 2, 8, "t",
                    lambda m: m[0] == "offer",
                )
            return out

        result = Simulator(g, NO_CD, seed=4).run(proto)
        assert result.outputs[1] == ("offer", 1)

    def test_frame_alignment_across_roles(self):
        g = path_graph(3)
        scheme = SRScheme("No-CD", 2, failure=0.05)
        layers = [0, 1, 2]

        def proto(ctx):
            yield from cluster_down_cast(
                ctx, scheme, layers[ctx.index], "C", 9,
                "m" if ctx.index == 0 else None, 3, 2, 4, "t",
                transform=lambda m: m,
            )
            return ctx.time

        result = Simulator(g, NO_CD, seed=0).run(proto)
        assert len(set(result.outputs)) == 1
