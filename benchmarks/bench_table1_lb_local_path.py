"""T1.LOCAL.LB — Theorem 1: worst pre-reception energy on a path is
Omega(log n); measured on the optimal Section 8 algorithm it is
sandwiched into Theta(log n)."""

import math

from conftest import run_rows


def test_t1_lb_local_path(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "lb-path", "sizes": [64, 256, 1024], "seeds": [0, 1, 2]},
    ])["lb-path"]
    # At or above (1/5) log2 n on every seed (lb_ok is a conjunction).
    assert all(p.extras["lb_ok"] == 1.0 for p in points)
    # Upper sandwich: stays within a generous O(log^2 n) of the bound.
    for p in points:
        assert p.extras["worst_pre_reception"] <= 10 * math.log2(p.n) ** 1.5
