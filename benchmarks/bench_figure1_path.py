"""FIG.1 + Theorem 21 — the path algorithm: Figure 1's timeline and the
(<= 2n time, O(log n) expected energy) guarantees."""

import math

from conftest import run_once, run_rows

from repro.experiments import figure1


def test_figure1_timeline(benchmark):
    rendering = run_once(benchmark, figure1, n=32, seed=0)
    print("\n" + rendering)
    assert "delivered" in rendering
    assert "P" in rendering


def test_t8_path_guarantees(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "path", "sizes": [64, 256, 1024], "seeds": [0, 1, 2]},
    ])["path"]
    assert all(p.delivered == p.seeds for p in points)
    for p in points:
        n_pow2 = 2 ** math.ceil(math.log2(p.n))
        assert p.time_median <= 2 * n_pow2
        # Mean energy within the Lemma 23 constant of ln(2n).
        assert p.mean_energy_median <= (4 * math.e / (math.e - 2)) * math.log(
            2 * p.n
        ) + 4
