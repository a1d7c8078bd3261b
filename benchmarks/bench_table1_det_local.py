"""T1.det.LOCAL — Theorem 25: deterministic LOCAL broadcast,
O(n log n log N) time and O(log n log N) energy."""

from conftest import run_rows


def test_t1_det_local(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "det-local", "sizes": [6, 8, 12], "seeds": [0]},
    ])["det-local"]
    assert all(p.delivered == p.seeds for p in points)
