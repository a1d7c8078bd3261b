"""T1.noCD.LB — Theorem 2 in No-CD: the K_{2,k} reduction gives
Omega(log Delta log n) energy; we execute the reduction and check its
accounting on the decay baseline."""

from conftest import run_rows


def test_t1_lb_reduction_nocd(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "lb-reduction", "sizes": [2, 4, 8, 16], "seeds": [0, 1, 2]},
    ])["lb-reduction"]
    assert all(p.extras["bound_holds"] == 1.0 for p in points)
    # Contention raises the derived LE's time (the engine of the bound).
    assert points[-1].extras["le_time"] >= points[0].extras["le_time"]
