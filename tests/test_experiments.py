"""Tests for table rendering, the Table 1 and ablation rows, and Figure 1."""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    SweepPoint,
    aggregate_campaign,
    aggregate_cells,
    knowledge_for,
    render_report,
    run_campaign,
    run_cells,
)
from repro.campaign.aggregate import format_table
from repro.experiments import figure1, render_path_timeline
from repro.graphs import path_graph
from repro.sim import LOCAL, ExecutionConfig


def _row_points(tmp_path, entries):
    """Run campaign row entries as ``repro table1`` does: each variant's
    points, and the printed report."""
    spec = CampaignSpec.from_dict({"name": "rows", "rows": entries})
    store = CampaignStore(str(tmp_path / "results.jsonl"))
    assert run_campaign(spec, store).all_ok
    return aggregate_campaign(spec, store), render_report(spec, store)


class TestHarness:
    def test_sweep_aggregates_medians(self):
        from repro.broadcast import local_flood_protocol

        points = []
        for n in (4, 8):
            graph = path_graph(n)
            points.append(aggregate_cells(run_cells(
                graph, LOCAL, local_flood_protocol(), label="flood", size=n,
                seeds=(0, 1, 2), knowledge=knowledge_for(graph),
            )))
        assert [p.n for p in points] == [4, 8]
        for point in points:
            assert point.delivered == 3
            assert point.time_median >= point.diameter
            assert point.max_energy_median >= 1

    def test_format_table_contains_ratios(self):
        point = SweepPoint(
            label="x", n=16, max_degree=4, diameter=5, seeds=2, delivered=2,
            time_median=100.0, max_energy_median=40.0, mean_energy_median=20.0,
        )
        text = format_table(
            "title", [point], bounds={"logn": lambda p: 4.0}
        )
        assert "title" in text
        assert "logn ratio" in text
        assert "10.00" in text  # 40 / 4

    def test_format_table_keeps_three_decimals(self):
        point = SweepPoint(
            label="x", n=40, max_degree=2, diameter=20, seeds=3, delivered=3,
            time_median=235521.0, max_energy_median=1.2,
            mean_energy_median=10.023,
            extras={"beta": 0.15, "edge_cut_rate": 0.075, "whole": 3.0},
        )
        text = format_table("t", [point], columns=(
            "time_median", "max_energy_median", "mean_energy_median",
            "beta", "edge_cut_rate", "whole",
        ))
        values = text.splitlines()[-1].split()
        assert values == ["235521.0", "1.2", "10.023", "0.15", "0.075", "3.0"]

    def test_sweep_point_ratio_helpers(self):
        point = SweepPoint(
            label="x", n=16, max_degree=4, diameter=5, seeds=1, delivered=1,
            time_median=100.0, max_energy_median=50.0, mean_energy_median=25.0,
        )
        assert point.ratio(25.0) == 2.0
        assert point.time_ratio(50.0) == 2.0


class TestTable1Runners:
    """The Table 1 and ablation rows as ``repro table1`` runs them."""

    def test_local_clustering_row(self, tmp_path):
        points, table = _row_points(
            tmp_path, [{"row": "local", "sizes": [8], "seeds": [0]}]
        )
        assert points["local"][0].delivered == 1
        assert "Theorem 11" in table

    def test_lb_local_path_row(self, tmp_path):
        points, table = _row_points(
            tmp_path, [{"row": "lb-path", "sizes": [32], "seeds": [0, 1]}]
        )
        extras = points["lb-path"][0].extras
        assert extras["lb_ok"] == 1.0
        assert extras["worst_pre_reception"] >= extras["lower_bound"]
        assert "Theorem 1" in table

    def test_lb_reduction_row(self, tmp_path):
        points, table = _row_points(tmp_path, [
            {"row": "lb-reduction", "sizes": [2, 4], "seeds": [0]},
            {"row": "lb-reduction-cd", "sizes": [2, 4], "seeds": [0]},
        ])
        for row in ("lb-reduction", "lb-reduction-cd"):
            assert all(p.extras["bound_holds"] == 1.0 for p in points[row])
        assert "K_{2,k}" in table and "T1.CD.LB" in table

    def test_ablate_beta_rows(self, tmp_path):
        points, table = _row_points(tmp_path, [
            {"row": "abl-beta", "sizes": [20], "seeds": [0],
             "options": {"beta": 0.2}},
            {"row": "abl-beta", "sizes": [20], "seeds": [0],
             "options": {"beta": 0.5}},
        ])
        assert points["abl-beta[beta=0.2]"][0].extras["beta"] == 0.2
        assert "Partition" in table


class TestFigure1:
    def test_figure1_renders(self):
        text = figure1(n=12, seed=0)
        assert "Figure 1 reproduction" in text
        assert "delivered" in text
        assert "P" in text
        assert "legend" in text

    def test_timeline_requires_trace(self):
        from repro.broadcast import local_flood_protocol, run_broadcast
        from repro.sim import Knowledge

        g = path_graph(3)
        out = run_broadcast(
            g, LOCAL, local_flood_protocol(),
            knowledge=Knowledge(n=3, max_degree=2, diameter=2), seed=0,
        )
        with pytest.raises(ValueError):
            render_path_timeline(out, 3)

    def test_timeline_rows_sorted_and_bounded(self):
        from repro.broadcast import run_broadcast
        from repro.broadcast.path import path_broadcast_protocol
        from repro.sim import Knowledge

        n = 8
        g = path_graph(n)
        out = run_broadcast(
            g, LOCAL, path_broadcast_protocol(), seed=1,
            knowledge=Knowledge(n=n, max_degree=2, diameter=n - 1),
            exec_config=ExecutionConfig(record_trace=True),
        )
        text = render_path_timeline(out, n, max_rows=5)
        slot_lines = [
            line for line in text.splitlines() if line.strip().split(" ")[0].isdigit()
        ]
        slots = [int(line.split("|")[0]) for line in slot_lines]
        assert slots == sorted(slots)
        assert all(s < 5 for s in slots)

    @pytest.mark.parametrize("n", (8, 16, 32))
    def test_traffic_observer_matches_trace_scan(self, n):
        from repro.broadcast import run_broadcast_trials
        from repro.broadcast.path import path_broadcast_protocol
        from repro.experiments.figure1 import TrafficObserver, _carries_payload
        from repro.sim import Knowledge

        seeds = (0, 1, 2)
        observers = {}

        def observer_factory(seed):
            observers[seed] = TrafficObserver()
            return (observers[seed],)

        outcomes = run_broadcast_trials(
            path_graph(n), LOCAL, path_broadcast_protocol(oriented=True),
            seeds, knowledge=Knowledge(n=n, max_degree=2, diameter=n - 1),
            exec_config=ExecutionConfig(
                record_trace=True, observer_factory=observer_factory
            ),
        )
        for seed, outcome in zip(seeds, outcomes):
            payload_tx = control_tx = 0
            for event in outcome.sim.trace:
                if event.kind not in ("send", "duplex"):
                    continue
                if _carries_payload(event.message, outcome.payload):
                    payload_tx += 1
                else:
                    control_tx += 1
            assert payload_tx and control_tx
            assert observers[seed].extras(outcome) == {
                "payload_tx": float(payload_tx),
                "control_tx": float(control_tx),
                "slots_2n_ok": 1.0 if outcome.duration <= 2 * n else 0.0,
            }


class TestCLI:
    def test_figure1_command(self, capsys):
        from repro.cli import main

        assert main(["figure1", "--n", "8", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1 reproduction" in out

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_figure1_n_below_one_exits_2_with_one_line(self, capsys, n):
        from repro.cli import main

        assert main(["figure1", "--n", n]) == 2
        assert capsys.readouterr().out == "--n must be >= 1\n"

    def test_figure1_renders_one_vertex(self, capsys):
        from repro.cli import main

        assert main(["figure1", "--n", "1"]) == 0
        assert "1-vertex path" in capsys.readouterr().out

    def test_table1_unknown_row(self, capsys):
        from repro.cli import main

        assert main(["table1", "bogus"]) == 2
        assert "unknown rows" in capsys.readouterr().out

    def test_table1_single_row(self, capsys):
        from repro.cli import main

        assert main(["table1", "lb-reduction"]) == 0
        assert "K_{2,k}" in capsys.readouterr().out

    def test_demo_command(self, capsys):
        from repro.cli import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "decay baseline" in out
        assert "Algorithm 1" in out
