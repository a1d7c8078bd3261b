"""Determinism contracts the campaign cache depends on.

The store keys cells by a content hash of the job *spec*, not the
result — so caching is only sound if the same (graph, model, seed)
always reproduces the same measurements.  These tests pin that down
at the simulator level and at the campaign level.
"""

from __future__ import annotations

import json
import os

from repro.broadcast import decay_broadcast_protocol
from repro.broadcast.path import path_broadcast_protocol
from repro.campaign import CampaignSpec, CampaignStore, execute_job, run_campaign
from repro.graphs import path_graph, random_gnp
from repro.sim import LOCAL, NO_CD, Knowledge, Simulator


def _run(graph, model, protocol_factory, seed, knowledge):
    return Simulator(graph, model, seed=seed, knowledge=knowledge).run(
        protocol_factory, inputs={0: {"source": True, "payload": "m"}}
    )


def _assert_identical(first, second):
    assert first.outputs == second.outputs
    assert first.energy == second.energy
    assert first.finish_slot == second.finish_slot
    assert first.duration == second.duration


class TestSimulatorDeterminism:
    def test_path_protocol_identical_across_runs(self):
        graph = path_graph(32)
        knowledge = Knowledge(n=32, max_degree=2, diameter=31)
        for seed in (0, 1, 7):
            first = _run(
                graph, LOCAL, path_broadcast_protocol(oriented=True),
                seed, knowledge,
            )
            second = _run(
                graph, LOCAL, path_broadcast_protocol(oriented=True),
                seed, knowledge,
            )
            _assert_identical(first, second)

    def test_randomized_protocol_identical_across_runs(self):
        import random

        graph = random_gnp(12, 0.3, random.Random(12))
        knowledge = Knowledge(n=12, max_degree=graph.max_degree, diameter=4)
        first = _run(graph, NO_CD, decay_broadcast_protocol(0.02), 3, knowledge)
        second = _run(graph, NO_CD, decay_broadcast_protocol(0.02), 3, knowledge)
        _assert_identical(first, second)

    def test_different_seeds_allowed_to_differ(self):
        import random

        graph = random_gnp(12, 0.3, random.Random(12))
        knowledge = Knowledge(n=12, max_degree=graph.max_degree, diameter=4)
        a = _run(graph, NO_CD, decay_broadcast_protocol(0.02), 0, knowledge)
        b = _run(graph, NO_CD, decay_broadcast_protocol(0.02), 1, knowledge)
        # Not a hard requirement, but if every seed were identical the
        # seeds axis of the campaign matrix would be meaningless.
        assert a.energy != b.energy or a.duration != b.duration


class TestCampaignDeterminism:
    def test_cell_payload_byte_identical(self):
        payload = {"job": {"row": "decay", "size": 16, "seed": 2}}
        first = execute_job(payload)[0]
        second = execute_job(payload)[0]
        assert first["status"] == second["status"] == "ok"
        assert json.dumps(first["result"], sort_keys=True) == json.dumps(
            second["result"], sort_keys=True
        )

    def test_rerun_adds_zero_store_entries(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "det",
            "rows": [
                {"row": "bounded", "sizes": [8], "seeds": [0, 1]},
                {"row": "lb-reduction", "sizes": [2, 4], "seeds": [0]},
            ],
        })
        store = CampaignStore(os.path.join(str(tmp_path), "results.jsonl"))
        first = run_campaign(spec, store)
        assert first.all_ok and first.ok == 4
        lines = store.line_count()
        second = run_campaign(spec, store)
        assert second.ran == 0 and second.skipped == 4
        assert store.line_count() == lines
