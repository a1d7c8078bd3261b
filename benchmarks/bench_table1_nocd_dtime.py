"""T1.noCD.2 — Theorem 16: O(D^{1+eps} polylog n) time, polylog energy.

Caveat (DESIGN.md): the asymptotic D-advantage needs sizes beyond laptop
simulation; here we verify correctness, polylog-scale energy, and the
time/energy ordering versus the flat clustering algorithm.
"""

from conftest import run_rows


def test_t1_nocd_dtime(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "dtime", "sizes": [8, 12, 16], "seeds": [0, 1]},
    ])["dtime"]
    assert all(p.delivered >= p.seeds - 1 for p in points)
