"""T1.CD.1 — Theorem 12 in CD: the epsilon time/energy tradeoff."""

from conftest import run_once, run_rows


def test_t1_cd_clustering(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "cd", "sizes": [8, 12, 16], "seeds": [0, 1]},
    ])["cd"]
    assert all(p.delivered == p.seeds for p in points)


def test_cd_beats_nocd_energy(benchmark):
    """Table 1's vertical comparison: at the same size, CD clustering
    uses less worst-vertex energy than No-CD clustering (collision
    detection pays)."""
    import random

    from repro.broadcast import (
        cluster_broadcast_protocol,
        run_broadcast,
        theorem11_params,
    )
    from repro.graphs import random_gnp
    from repro.graphs.properties import diameter
    from repro.sim import CD, NO_CD, Knowledge

    def compare():
        n = 14
        graph = random_gnp(n, 0.3, random.Random(n))
        knowledge = Knowledge(
            n=n, max_degree=graph.max_degree, diameter=diameter(graph)
        )
        cd = run_broadcast(
            graph, CD,
            cluster_broadcast_protocol(theorem11_params(n, "CD", failure=0.02)),
            knowledge=knowledge, seed=1,
        )
        nocd = run_broadcast(
            graph, NO_CD,
            cluster_broadcast_protocol(theorem11_params(n, "No-CD", failure=0.02)),
            knowledge=knowledge, seed=1,
        )
        return cd, nocd

    cd, nocd = run_once(benchmark, compare)
    print(f"\nCD max energy: {cd.max_energy}, No-CD max energy: {nocd.max_energy}")
    assert cd.delivered and nocd.delivered
    assert cd.max_energy < nocd.max_energy
