"""T1.noCD.3 — Corollary 13: Delta = O(1) graphs, O(n log n) time and
O(log n) energy in No-CD via the Theorem 3 LOCAL simulation."""

from conftest import run_once, run_rows


def test_t1_nocd_bounded_degree(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "bounded", "sizes": [8, 12, 16], "seeds": [0, 1]},
    ])["bounded"]
    assert all(p.delivered == p.seeds for p in points)


def test_simulation_beats_native_nocd(benchmark):
    """Corollary 13's point: on bounded-degree graphs, simulating LOCAL
    costs less energy than running the No-CD algorithm natively."""
    from repro.broadcast import (
        cluster_broadcast_protocol,
        run_broadcast,
        theorem11_params,
    )
    from repro.broadcast.local_sim import local_sim_broadcast_protocol
    from repro.graphs import path_graph
    from repro.sim import NO_CD, Knowledge

    def compare():
        n = 12
        graph = path_graph(n)
        knowledge = Knowledge(n=n, max_degree=2, diameter=n - 1)
        sim = run_broadcast(
            graph, NO_CD, local_sim_broadcast_protocol(failure=0.02),
            knowledge=knowledge, seed=3,
        )
        native = run_broadcast(
            graph, NO_CD,
            cluster_broadcast_protocol(
                theorem11_params(n, "No-CD", failure=0.02)
            ),
            knowledge=knowledge, seed=3,
        )
        return sim, native

    sim, native = run_once(benchmark, compare)
    print(f"\nLOCAL-sim energy {sim.max_energy} vs native No-CD {native.max_energy}")
    assert sim.delivered and native.delivered
    assert sim.max_energy < native.max_energy
