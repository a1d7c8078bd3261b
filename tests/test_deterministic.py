"""Tests for the deterministic algorithms (Appendix A)."""

from __future__ import annotations

import pytest

from repro.broadcast import run_broadcast
from repro.broadcast.deterministic import (
    det_cd_broadcast_protocol,
    det_local_broadcast_protocol,
)
from repro.core.det_tree import (
    DetCDScheme,
    det_downward,
    det_upward,
    upward_slots,
)
from repro.graphs import Graph, cycle_graph, grid_graph, path_graph, star_graph
from repro.sim import CD, LOCAL, Simulator

from tests.conftest import knowledge_for


def _det_knowledge(g):
    return knowledge_for(g, id_space=g.n)


class TestDetTreeTransmissions:
    def test_downward_parent_to_children(self):
        # Star: center (uid 1) is parent of all leaves.
        g = star_graph(4)
        id_space = 4

        def proto(ctx):
            if ctx.index == 0:
                out = yield from det_downward(ctx, None, "m", False, id_space)
            else:
                out = yield from det_downward(ctx, 1, None, True, id_space)
            return out

        result = Simulator(g, CD, seed=0).run(proto)
        assert result.outputs[1:] == ["m", "m", "m"]

    def test_downward_zero_failure_with_contending_parents(self):
        # Two parents (0, 2) with children (1, 3): reserved intervals keep
        # the transmissions collision-free deterministically.
        g = Graph(4, [(0, 1), (2, 3), (1, 3)])
        id_space = 4

        def proto(ctx):
            if ctx.index in (0, 2):
                out = yield from det_downward(
                    ctx, None, f"m{ctx.index}", False, id_space
                )
            else:
                parent_uid = 1 if ctx.index == 1 else 3
                out = yield from det_downward(ctx, parent_uid, None, True, id_space)
            return out

        result = Simulator(g, CD, seed=0).run(proto)
        assert result.outputs[1] == "m0"
        assert result.outputs[3] == "m2"

    def test_upward_parent_receives_min_child(self):
        g = star_graph(5)
        id_space = 5

        def proto(ctx):
            if ctx.index == 0:
                out = yield from det_upward(ctx, None, None, True, id_space)
            else:
                out = yield from det_upward(
                    ctx, 1, f"c{ctx.uid}", False, id_space
                )
            return out

        result = Simulator(g, CD, seed=0).run(proto)
        child_uid, message = result.outputs[0]
        assert child_uid == 2  # minimum child ID
        assert message == "c2"

    def test_upward_energy_logarithmic(self):
        g = star_graph(5)
        id_space = 5

        def proto(ctx):
            if ctx.index == 0:
                out = yield from det_upward(ctx, None, None, True, id_space)
            else:
                out = yield from det_upward(ctx, 1, "x", False, id_space)
            return out

        result = Simulator(g, CD, seed=0).run(proto)
        assert result.duration <= upward_slots(id_space)
        # O(log N) energy per vertex per grid.
        assert all(e.total <= 4 * 3 + 6 for e in result.energy)

    def test_det_scheme_casts_roundtrip(self):
        # DetCDScheme should drive the generic casts deterministically.
        from repro.core.casts import down_cast

        g = path_graph(4)
        scheme = DetCDScheme(4)
        labels = [0, 1, 2, 3]

        def proto(ctx):
            value = "m" if ctx.index == 0 else None
            out = yield from down_cast(
                ctx, scheme, labels[ctx.index], value, 4
            )
            return out

        result = Simulator(g, CD, seed=0).run(proto)
        assert result.outputs == ["m"] * 4


class TestDeterministicLocal:
    @pytest.mark.parametrize("maker", [
        lambda: path_graph(8),
        lambda: cycle_graph(9),
        lambda: grid_graph(3, 3),
    ])
    def test_delivers(self, maker):
        g = maker()
        out = run_broadcast(
            g, LOCAL, det_local_broadcast_protocol(),
            knowledge=_det_knowledge(g), seed=0,
        )
        assert out.delivered

    def test_deterministic_reproducibility(self):
        # Same graph, same IDs -> identical durations and energies across
        # different seeds (no randomness used).
        g = cycle_graph(8)
        k = _det_knowledge(g)
        a = run_broadcast(g, LOCAL, det_local_broadcast_protocol(), knowledge=k, seed=1)
        b = run_broadcast(g, LOCAL, det_local_broadcast_protocol(), knowledge=k, seed=99)
        assert a.duration == b.duration
        assert [e.total for e in a.sim.energy] == [e.total for e in b.sim.energy]

    def test_id_permutation_changes_schedule_not_correctness(self):
        g = path_graph(6)
        k = _det_knowledge(g)
        out = run_broadcast(
            g, LOCAL, det_local_broadcast_protocol(), knowledge=k,
            uids=[4, 2, 6, 1, 5, 3], seed=0,
        )
        assert out.delivered


class TestDeterministicCD:
    @pytest.mark.parametrize("maker", [
        lambda: path_graph(6),
        lambda: cycle_graph(6),
        lambda: star_graph(5),
    ])
    def test_delivers(self, maker):
        g = maker()
        out = run_broadcast(
            g, CD, det_cd_broadcast_protocol(),
            knowledge=_det_knowledge(g), seed=0,
        )
        assert out.delivered

    def test_deterministic_reproducibility(self):
        g = path_graph(5)
        k = _det_knowledge(g)
        a = run_broadcast(g, CD, det_cd_broadcast_protocol(), knowledge=k, seed=1)
        b = run_broadcast(g, CD, det_cd_broadcast_protocol(), knowledge=k, seed=2)
        assert a.duration == b.duration
        assert [e.total for e in a.sim.energy] == [e.total for e in b.sim.energy]

    def test_energy_well_below_time(self):
        g = cycle_graph(6)
        out = run_broadcast(
            g, CD, det_cd_broadcast_protocol(),
            knowledge=_det_knowledge(g), seed=0,
        )
        assert out.delivered
        assert out.max_energy * 20 < out.duration

    def test_nonzero_source(self):
        g = grid_graph(2, 3)
        out = run_broadcast(
            g, CD, det_cd_broadcast_protocol(),
            knowledge=_det_knowledge(g), source=3, seed=0,
        )
        assert out.delivered
