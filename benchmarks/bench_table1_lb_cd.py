"""T1.CD.LB — Theorem 2 in CD: Omega(log n) energy via the K_{2,k}
reduction, executed against the Theorem 11 CD algorithm."""

from conftest import run_rows


def test_t1_lb_reduction_cd(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "lb-reduction-cd", "sizes": [2, 4, 8], "seeds": [0, 1]},
    ])["lb-reduction-cd"]
    # T_LE <= 2E on every seed (bound_holds aggregates as a conjunction).
    assert all(p.extras["bound_holds"] == 1.0 for p in points)
