"""Tests for growth-rate analysis + an integration check on real sweeps."""

from __future__ import annotations

import math

import pytest

from repro.experiments.analysis import crossover_size, fit_log_power, fit_power_law
from repro.campaign.cells import SweepPoint


def _point(n, energy, time=0.0):
    return SweepPoint(
        label="x", n=n, max_degree=4, diameter=n // 2, seeds=1, delivered=1,
        time_median=time, max_energy_median=energy, mean_energy_median=energy,
    )


class TestFits:
    def test_linear_growth_has_exponent_one(self):
        points = [_point(n, 3.0 * n) for n in (8, 16, 32, 64)]
        assert fit_power_law(points) == pytest.approx(1.0, abs=0.01)

    def test_quadratic_growth(self):
        points = [_point(n, n * n) for n in (8, 16, 32)]
        assert fit_power_law(points) == pytest.approx(2.0, abs=0.01)

    def test_logarithmic_growth_has_small_exponent(self):
        points = [_point(n, 5 * math.log(n)) for n in (16, 64, 256, 1024)]
        assert fit_power_law(points) < 0.35

    def test_log_power_fit(self):
        points = [_point(n, math.log(n) ** 3) for n in (16, 64, 256, 1024)]
        assert fit_log_power(points) == pytest.approx(3.0, abs=0.2)

    def test_time_metric_selector(self):
        points = [_point(n, 1.0, time=n) for n in (8, 16, 32)]
        assert fit_power_law(
            points, metric=lambda p: p.time_median
        ) == pytest.approx(1.0, abs=0.01)

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([_point(8, 10)])

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([_point(8, 10), _point(8, 20)])


class TestCrossover:
    def test_finds_first_win(self):
        ours = [_point(n, 10 * math.log(n)) for n in (8, 16, 32, 64)]
        theirs = [_point(n, n) for n in (8, 16, 32, 64)]
        # 10 ln(n) dips below n between 32 and 64.
        assert crossover_size(ours, theirs) == 64

    def test_none_when_never_wins(self):
        ours = [_point(n, n * 2) for n in (8, 16)]
        theirs = [_point(n, n) for n in (8, 16)]
        assert crossover_size(ours, theirs) is None

    def test_ignores_uncommon_sizes(self):
        ours = [_point(8, 1), _point(99, 1)]
        theirs = [_point(8, 2)]
        assert crossover_size(ours, theirs) == 8


def _sweep(graph_factory, sizes, protocol, model, seeds):
    """Seed-median points over ``sizes``, one run_cells batch per size."""
    from repro.campaign import aggregate_cells, knowledge_for, run_cells

    points = []
    for size in sizes:
        graph = graph_factory(size)
        points.append(aggregate_cells(run_cells(
            graph, model, protocol, label="sweep", size=size, seeds=seeds,
            knowledge=knowledge_for(graph),
        )))
    return points


class TestIntegrationWithRealSweeps:
    def test_path_algorithm_energy_sublinear(self):
        from repro.broadcast.path import path_broadcast_protocol
        from repro.graphs import path_graph
        from repro.sim import LOCAL

        points = _sweep(
            path_graph, (32, 128, 512),
            path_broadcast_protocol(oriented=True), LOCAL, seeds=(0, 1, 2),
        )
        exponent = fit_power_law(points, metric=lambda p: p.mean_energy_median)
        assert exponent < 0.45  # O(log n), not polynomial

    def test_path_algorithm_time_linear(self):
        from repro.broadcast.path import path_broadcast_protocol
        from repro.graphs import path_graph
        from repro.sim import LOCAL

        points = _sweep(
            path_graph, (32, 128, 512),
            path_broadcast_protocol(oriented=True), LOCAL, seeds=(0, 1),
        )
        exponent = fit_power_law(points, metric=lambda p: p.time_median)
        assert 0.8 <= exponent <= 1.2  # Theta(n)

    def test_decay_energy_tracks_diameter(self):
        from repro.broadcast import decay_broadcast_protocol
        from repro.graphs import path_graph
        from repro.sim import NO_CD

        points = _sweep(
            path_graph, (16, 64, 256),
            decay_broadcast_protocol(failure=0.02), NO_CD, seeds=(0,),
        )
        exponent = fit_power_law(points)
        assert exponent > 0.6  # near-linear in D = n-1
