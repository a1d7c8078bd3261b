"""Tests for the engine microbenchmark harness (repro bench)."""

from __future__ import annotations

import copy
import json
import re

import pytest

from repro.experiments.bench import (
    BenchWorkload,
    check_thresholds,
    default_workloads,
    format_report,
    run_engine_benchmarks,
    write_results,
)
from repro.graphs import clique
from repro.sim import NO_CD, Idle, Knowledge, Listen, Send
from repro.sim.resolution import numpy_available


def _tiny_workload() -> BenchWorkload:
    def protocol(ctx):
        for step in range(3):
            if (ctx.index + step) % 3 == 0:
                yield Send(("m", ctx.index, step))
            else:
                yield Listen()
        return ctx.index

    def build():
        graph = clique(5)
        knowledge = Knowledge(n=5, max_degree=4, diameter=1)
        return graph, NO_CD, protocol, knowledge, {}

    return BenchWorkload(
        "tiny", "clique n=5 smoke workload", build, reps=1, backend_bench=True
    )


def _idle_workload() -> BenchWorkload:
    def protocol(ctx):
        yield Idle(3)
        return ctx.index

    def build():
        graph = clique(4)
        knowledge = Knowledge(n=4, max_degree=3, diameter=1)
        return graph, NO_CD, protocol, knowledge, {}

    return BenchWorkload(
        "idle-only", "no active slots", build, reps=1, backend_bench=True
    )


@pytest.fixture(scope="module")
def report():
    """One quick bench run for the whole module; tests that mutate it
    work on deep copies."""
    return run_engine_benchmarks(
        quick=True, workloads=[_tiny_workload(), _idle_workload()],
        lockstep_seeds=8,
    )


class TestBenchHarness:
    def test_report_shape_and_equivalence(self, report):
        entry = report["workloads"]["tiny"]
        assert entry["equivalent"] is True
        assert entry["n"] == 5
        assert entry["slots"] == 3
        # The serial engine (the best simple configuration), its numpy
        # twin when numpy is installed, and the oracle; nothing per-slot.
        expected_runners = {"engine", "reference"}
        if numpy_available():
            expected_runners.add("engine_numpy")
        assert set(entry["seconds"]) == expected_runners
        for value in entry["seconds"].values():
            assert value >= 0
        # The tiny per-slot workload enters its generator once per slot
        # per node (+ the init and final entries) on every tracked runner.
        assert entry["entries_per_slot"]["engine"] > 0
        assert (
            entry["entries_per_slot"]["engine"]
            == entry["entries_per_slot"]["reference"]
        )
        assert "min_speedup_vs_reference" in report["summary"]

    def test_backend_replay_and_numpy_gate(self, report):
        backends = report["workloads"]["tiny"]["resolution_backends"]
        assert backends["equivalent"] is True
        assert backends["slots_replayed"] == 3
        assert "bitmask" in backends["seconds"]
        if numpy_available():
            assert "speedup_numpy_vs_bitmask" in backends
            # An absurd bar is flagged against the backend ratio.
            violations = check_thresholds(report, min_numpy_speedup=1e9)
            assert any("numpy-vs-bitmask" in v for v in violations)
        else:
            violations = check_thresholds(report, min_numpy_speedup=1.0)
            assert any("not installed" in v for v in violations)
        assert report["lockstep_trials"]["equivalent"] is True
        assert report["lossy_lockstep_trials"]["equivalent"] is True

    def test_backend_replay_with_no_active_slots(self, report):
        backends = report["workloads"]["idle-only"]["resolution_backends"]
        assert backends == {
            "slots_replayed": 0, "seconds": {}, "equivalent": True,
        }

    def test_thresholds(self, report):
        # Impossible bars must be flagged, once per workload...
        violations = check_thresholds(report, min_ref_speedup=1e9)
        assert len(violations) == len(report["workloads"])
        # ...no bars, no violations.
        assert check_thresholds(report) == []

    def test_report_names_no_per_slot_runner(self, report):
        # Ratios are taken against serial phase stepping only.
        text = json.dumps(report) + format_report(report)
        for retired in ("engine_slot", "serial_slot", "phase_vs_slot"):
            assert retired not in text

    @pytest.mark.parametrize("key", ["lockstep_trials", "lossy_lockstep_trials"])
    def test_lockstep_sections_time_serial_phase_against_lockstep(
        self, report, key
    ):
        section = report[key]
        assert set(section["seconds"]) == {"serial_phase", "lockstep_phase"}
        assert section["seeds"] == 8
        assert section["equivalent"] is True
        assert section["speedup_vs_serial_phase"] > 0
        assert section["soa_active"] is (section["soa_reason"] == "ok")

    @pytest.mark.parametrize("key, bar", [
        ("lockstep_trials", "min_lockstep_speedup"),
        ("lossy_lockstep_trials", "min_lossy_soa_speedup"),
    ])
    def test_lockstep_gates_read_the_best_serial_ratio(self, report, key, bar):
        # Each gate compares the SoA engine with the serial engine, both
        # phase-stepped, on its own section only.
        gated = copy.deepcopy(report)
        for section in ("lockstep_trials", "lossy_lockstep_trials"):
            gated[section]["soa_active"] = True
            gated[section]["speedup_vs_serial_phase"] = 1.2
        assert check_thresholds(gated, **{bar: 1.5}) == [
            f"{key}: speedup_vs_serial_phase 1.2x < required 1.5x"
        ]
        gated[key]["speedup_vs_serial_phase"] = 1.6
        assert check_thresholds(gated, **{bar: 1.5}) == []

    def test_lossy_soa_section_and_gate(self, report):
        lossy = report["lossy_lockstep_trials"]
        assert lossy["loss_rate"] == 0.3
        assert report["lockstep_trials"]["loss_rate"] == 0.0
        if numpy_available():
            assert lossy["soa_active"] is True
            assert lossy["soa_reason"] == "ok"
            violations = check_thresholds(report, min_lossy_soa_speedup=1e9)
            assert any(
                v.startswith("lossy_lockstep_trials: speedup_vs_serial_phase")
                for v in violations
            )
        else:
            assert lossy["soa_active"] is False
            violations = check_thresholds(report, min_lossy_soa_speedup=0.0)
            assert any("inactive" in v for v in violations)
        # A fast-but-wrong lossy engine fails before any ratio counts.
        broken = copy.deepcopy(report)
        broken["lossy_lockstep_trials"]["equivalent"] = False
        violations = check_thresholds(broken)
        assert any("diverge" in v for v in violations)
        # Requesting the gate without the section is itself a violation.
        del broken["lossy_lockstep_trials"]
        violations = check_thresholds(broken, min_lossy_soa_speedup=1.0)
        assert any("missing" in v for v in violations)

    def test_equivalence_failure_is_a_violation(self, report):
        broken = copy.deepcopy(report)
        broken["workloads"]["tiny"]["equivalent"] = False
        violations = check_thresholds(broken)
        assert violations and "disagree" in violations[0]

    def test_write_results_round_trips(self, report, tmp_path):
        path = tmp_path / "bench_results.json"
        write_results(report, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["workloads"]["tiny"]["slots"] == 3
        assert "tiny" in format_report(loaded)

    def test_default_workloads_cover_acceptance_set(self):
        full, quick = default_workloads(), default_workloads(quick=True)
        # One list: quick shrinks sizes, never the workload set.
        assert [w.name for w in quick] == [w.name for w in full]
        names = {w.name for w in full}
        assert {"dense_single_hop_n512", "table1_clustering_row"} <= names

    @pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
    def test_a_size_in_a_workload_key_is_the_size_it_runs(self, quick):
        # A size belongs in the key only if quick runs keep it; the path
        # workload shrinks in quick mode, so its key names no size.
        workloads = default_workloads(quick=quick)
        assert "path_idle" in {w.name for w in workloads}
        for w in workloads:
            size = re.search(r"_n(\d+)$", w.name)
            if size:
                assert f"n={size.group(1)}" in w.description, w.name

    def test_empty_lockstep_batches_are_refused(self):
        with pytest.raises(ValueError, match="lockstep_seeds must be >= 1"):
            run_engine_benchmarks(workloads=[], lockstep_seeds=0)


class TestBenchCli:
    def test_cli_quick_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["bench", "--quick", "--out", "x.json", "--min-ref-speedup", "1.2"]
        )
        assert args.quick and args.out == "x.json"
        assert args.min_ref_speedup == 1.2
        assert args.min_lossy_soa_speedup is None

    def test_cli_lossy_soa_gate_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["bench", "--quick", "--min-lossy-soa-speedup", "2.0"]
        )
        assert args.min_lossy_soa_speedup == 2.0

    @pytest.mark.parametrize("flags", [
        ["--churn", "periodic:period=2,down=1"],
        ["--stepping", "slot"],
        ["--resolution", "numpy"],
        ["--min-phase-speedup", "2.0"],
    ], ids=["churn", "stepping", "resolution", "min-phase-speedup"])
    def test_cli_takes_no_execution_flags(self, flags):
        # The bench runs one fixed matrix: execution flags are usage
        # errors, not a re-centered base config, and so is the retired
        # phase-vs-per-slot gate (no per-slot runner is timed).
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench", "--quick", *flags])
        assert exc.value.code == 2

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_seeds_below_one_exit_2_before_anything_runs(
        self, capsys, monkeypatch, seeds
    ):
        import repro.experiments.bench as bench
        from repro.cli import main

        def refuse(**kwargs):
            raise AssertionError("the bench ran")

        monkeypatch.setattr(bench, "run_engine_benchmarks", refuse)
        assert main(["bench", "--quick", "--seeds", seeds]) == 2
        assert capsys.readouterr().out == "--seeds must be >= 1\n"
