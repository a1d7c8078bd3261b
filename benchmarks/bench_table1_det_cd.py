"""T1.det.CD — Theorem 27: deterministic CD broadcast,
O(N^2 n log n log N) time and O(log^3 N log n) energy."""

from conftest import run_rows


def test_t1_det_cd(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "det-cd", "sizes": [4, 6, 8], "seeds": [0]},
    ])["det-cd"]
    assert all(p.delivered == p.seeds for p in points)
    # Deterministic CD pays heavily in time, not energy.
    for p in points:
        assert p.max_energy_median * 10 < p.time_median
