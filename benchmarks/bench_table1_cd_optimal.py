"""T1.CD.2 — Theorem 20 in CD: O(log n loglogD/logloglogD) energy at
O(Delta n^{1+xi}) time."""

from conftest import run_once, run_rows


def test_t1_cd_optimal(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "cd-optimal", "sizes": [8, 12], "seeds": [0, 1]},
    ])["cd-optimal"]
    assert all(p.delivered == p.seeds for p in points)
    # Theorem 20's signature: time is enormous relative to energy.
    for p in points:
        assert p.max_energy_median * 50 < p.time_median


def test_thm20_energy_beats_thm12(benchmark):
    """Theorem 20's point: lower energy than Theorem 12 at the same size,
    paying with (much) more time."""
    import random

    from repro.broadcast import (
        cluster_broadcast_protocol,
        run_broadcast,
        theorem12_params,
    )
    from repro.broadcast.cd_optimal import (
        CDOptimalParams,
        cd_optimal_broadcast_protocol,
    )
    from repro.graphs import random_gnp
    from repro.graphs.properties import diameter
    from repro.sim import CD, Knowledge

    def compare():
        n = 12
        graph = random_gnp(n, 0.3, random.Random(n))
        knowledge = Knowledge(
            n=n, max_degree=graph.max_degree, diameter=diameter(graph)
        )
        thm20 = run_broadcast(
            graph, CD,
            cd_optimal_broadcast_protocol(
                CDOptimalParams.for_graph(
                    n, graph.max_degree, iterations=3, rounds_s=2
                )
            ),
            knowledge=knowledge, seed=1,
        )
        thm12 = run_broadcast(
            graph, CD,
            cluster_broadcast_protocol(
                theorem12_params(n, epsilon=0.5, failure=0.02)
            ),
            knowledge=knowledge, seed=1,
        )
        return thm20, thm12

    thm20, thm12 = run_once(benchmark, compare)
    print(
        f"\nThm20: energy {thm20.max_energy} time {thm20.duration} | "
        f"Thm12: energy {thm12.max_energy} time {thm12.duration}"
    )
    assert thm20.delivered and thm12.delivered
    assert thm20.max_energy < thm12.max_energy
    assert thm20.duration > thm12.duration
