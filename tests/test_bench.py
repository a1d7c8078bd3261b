"""Tests for the engine microbenchmark harness (repro bench)."""

from __future__ import annotations

import copy
import json

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
        expected_runners = {"engine", "engine_slot", "reference"}
        if numpy_available():
            expected_runners.add("engine_numpy")
        assert set(entry["seconds"]) == expected_runners
        for value in entry["seconds"].values():
            assert value >= 0
        assert "speedup_phase_vs_slot" in entry
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
        # The phase bar applies only to phase_gate workloads.
        assert check_thresholds(report, min_phase_speedup=1e9) == []
        gated = copy.deepcopy(report)
        gated["workloads"]["tiny"]["phase_gate"] = True
        violations = check_thresholds(gated, min_phase_speedup=1e9)
        assert len(violations) == 1 and "phase_vs_slot" in violations[0]

    def test_lockstep_gate_reads_the_best_serial_ratio(self, report):
        # The gate compares the SoA engine with the serial engine, both
        # phase-stepped; the per-slot ratio is a diagnostic only.
        gated = copy.deepcopy(report)
        lockstep = gated["lockstep_trials"]
        lockstep["soa_active"] = True
        lockstep["speedup_lockstep_phase_vs_serial_slot"] = 10.0
        lockstep["speedup_lockstep_vs_serial_phase"] = 1.2
        assert check_thresholds(gated, min_lockstep_speedup=1.5) == [
            "lockstep_trials: speedup_lockstep_vs_serial_phase 1.2x "
            "< required 1.5x"
        ]
        lockstep["speedup_lockstep_phase_vs_serial_slot"] = 1.0
        lockstep["speedup_lockstep_vs_serial_phase"] = 1.6
        assert check_thresholds(gated, min_lockstep_speedup=1.5) == []

    def test_lossy_soa_section_and_gate(self, report):
        lossy = report["lossy_lockstep_trials"]
        assert lossy["workload"] == "lossy_sr_frame_n256"
        assert lossy["equivalent"] is True
        # The dispatch verdict is surfaced per variant: the serial
        # oracle never routes through the lock-step dispatcher (None).
        assert lossy["soa_reason"]["serial_slot"] is None
        if numpy_available():
            assert lossy["soa_active"] is True
            assert lossy["soa_reason"]["lockstep_phase"] == "ok"
            violations = check_thresholds(report, min_lossy_soa_speedup=1e9)
            assert any("speedup_lossy_soa_vs_serial" in v for v in violations)
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
        for quick in (False, True):
            names = {w.name for w in default_workloads(quick=quick)}
            assert {"dense_single_hop_n512", "table1_clustering_row"} <= names


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
    ], ids=["churn", "stepping", "resolution"])
    def test_cli_takes_no_execution_flags(self, flags):
        # The bench runs one fixed matrix: execution flags are usage
        # errors, not a re-centered base config.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench", "--quick", *flags])
        assert exc.value.code == 2
