"""Tests for the broadcast runner/outcome layer and cross-model integration."""

from __future__ import annotations

from repro.broadcast import (
    BroadcastOutcome,
    local_flood_protocol,
    run_broadcast,
    source_inputs,
)
from repro.graphs import grid_graph, path_graph
from repro.sim import LOCAL, ExecutionConfig

from tests.conftest import knowledge_for


class TestRunBroadcast:
    def test_source_inputs_shape(self):
        assert source_inputs(3, "m") == {3: {"source": True, "payload": "m"}}

    def test_outcome_metrics(self):
        g = path_graph(5)
        out = run_broadcast(
            g, LOCAL, local_flood_protocol(), knowledge=knowledge_for(g), seed=0
        )
        assert isinstance(out, BroadcastOutcome)
        assert out.delivered
        assert out.informed == 5
        assert out.max_energy >= out.mean_energy
        assert out.duration >= 1

    def test_partial_delivery_counted(self):
        # A protocol that never relays: only the source's neighbors learn.
        from repro.sim.actions import Idle, Listen, Send

        def lazy(ctx):
            if ctx.inputs.get("source"):
                yield Send(ctx.inputs["payload"])
                return ctx.inputs["payload"]
            fb = yield Listen()
            return fb[0] if fb else None

        g = path_graph(4)
        out = run_broadcast(
            g, LOCAL, lazy, knowledge=knowledge_for(g), seed=0
        )
        assert not out.delivered
        assert out.informed == 2  # source + its single neighbor

    def test_custom_payload_objects(self):
        payload = ("config", {"rate": 7}, [1, 2, 3])
        g = path_graph(3)
        out = run_broadcast(
            g, LOCAL, local_flood_protocol(), payload=payload,
            knowledge=knowledge_for(g), seed=0,
        )
        assert out.delivered
        assert out.payload == payload

    def test_uids_forwarded(self):
        from repro.sim.actions import Idle

        def proto(ctx):
            yield Idle(1)
            return ctx.inputs.get("payload") if ctx.inputs.get("source") else ctx.uid

        g = path_graph(3)
        out = run_broadcast(
            g, LOCAL, proto, knowledge=knowledge_for(g), uids=[9, 8, 7], seed=0
        )
        assert out.sim.outputs[1:] == [8, 7]

    def test_trace_flag(self):
        g = path_graph(3)
        with_trace = run_broadcast(
            g, LOCAL, local_flood_protocol(), knowledge=knowledge_for(g),
            seed=0, exec_config=ExecutionConfig(record_trace=True),
        )
        without = run_broadcast(
            g, LOCAL, local_flood_protocol(), knowledge=knowledge_for(g), seed=0
        )
        assert with_trace.sim.trace is not None
        assert without.sim.trace is None


class TestCrossModelOrdering:
    def test_energy_ordering_local_cd_nocd(self):
        """Table 1's vertical story at one size: LOCAL <= CD <= No-CD
        worst-vertex energy for the same clustering algorithm."""
        from repro.broadcast import cluster_broadcast_protocol, theorem11_params
        from repro.sim import CD, NO_CD

        g = grid_graph(3, 4)
        k = knowledge_for(g)
        energies = {}
        for model, name in ((LOCAL, "LOCAL"), (CD, "CD"), (NO_CD, "No-CD")):
            out = run_broadcast(
                g, model,
                cluster_broadcast_protocol(
                    theorem11_params(g.n, name, failure=0.02)
                ),
                knowledge=k, seed=5,
            )
            assert out.delivered
            energies[name] = out.max_energy
        assert energies["LOCAL"] <= energies["CD"] <= energies["No-CD"]
