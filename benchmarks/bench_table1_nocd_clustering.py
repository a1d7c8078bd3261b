"""T1.noCD.1 — Theorem 11 in No-CD: O(n logD log^2 n) time,
O(logD log^2 n) energy (logD = log Delta)."""

import math

from conftest import run_rows


def test_t1_nocd_clustering(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "nocd", "sizes": [8, 12, 16], "seeds": [0, 1]},
    ])["nocd"]
    assert all(p.delivered == p.seeds for p in points)
    # Energy must track logD * log^2 n: ratio roughly flat.
    def bound(p):
        return math.log2(max(2, p.max_degree)) * math.log2(max(2, p.n)) ** 2

    ratios = [p.max_energy_median / bound(p) for p in points]
    assert ratios[-1] <= 2.5 * ratios[0]
