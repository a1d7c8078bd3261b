"""T1.LOCAL.1 — Theorem 11 in LOCAL: O(n log n) time, O(log n) energy."""

from conftest import run_rows


def test_t1_local_clustering(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "local", "sizes": [8, 16, 32], "seeds": [0, 1, 2]},
    ])["local"]
    assert all(p.delivered == p.seeds for p in points)
    # Flat-ratio check: energy/log n must not grow with n.
    ratios = [p.max_energy_median / max(1.0, p.n.bit_length()) for p in points]
    assert ratios[-1] <= 2.0 * ratios[0]
