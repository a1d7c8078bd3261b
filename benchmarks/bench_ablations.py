"""ABL.* — ablations of the design choices DESIGN.md calls out."""

from conftest import run_rows

from repro.broadcast import theorem11_params, theorem12_params


def test_ablate_probe(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "abl-probe", "sizes": [12], "seeds": [0, 1, 2]},
        {"row": "abl-noprobe", "sizes": [12], "seeds": [0, 1, 2]},
    ])
    # Remark 9 probes must cut worst-vertex energy in CD.
    assert (
        points["abl-probe"][0].max_energy_median
        < points["abl-noprobe"][0].max_energy_median
    )


def test_ablate_ps(benchmark, tmp_path):
    run_rows(benchmark, tmp_path, [
        {"row": "abl-ps-thm11", "sizes": [12], "seeds": [0, 1]},
        {"row": "abl-ps-thm12", "sizes": [12], "seeds": [0, 1]},
    ])
    thm11 = theorem11_params(12, "CD", failure=0.02)
    thm12 = theorem12_params(12, epsilon=0.5, failure=0.02)
    # Theorem 12 uses fewer, heavier refinements.
    assert thm12.iterations < thm11.iterations
    assert thm12.spread_s > thm11.spread_s


def test_ablate_beta(benchmark, tmp_path):
    betas = (0.15, 0.3, 0.6)
    points = run_rows(benchmark, tmp_path, [
        {"row": "abl-beta", "sizes": [40], "seeds": [0, 1, 2],
         "options": {"beta": beta}}
        for beta in betas
    ])
    extras = [points[f"abl-beta[beta={beta}]"][0].extras for beta in betas]
    # Lemma 14: measured edge-cut rate below ~2 beta (+ slack).
    for row in extras:
        assert row["edge_cut_rate"] <= row["lemma14_bound"] + 0.15
    # More aggressive beta -> more clusters.
    assert extras[0]["clusters"] <= extras[-1]["clusters"]


def test_baseline_decay_energy_grows_with_d(benchmark, tmp_path):
    points = run_rows(benchmark, tmp_path, [
        {"row": "decay", "sizes": [16, 36, 64], "seeds": [0, 1]},
    ])["decay"]
    assert all(p.delivered == p.seeds for p in points)
    # The baseline's pathology: energy grows with diameter.
    assert points[-1].max_energy_median > points[0].max_energy_median
