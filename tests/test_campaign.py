"""Tests for the campaign subsystem: spec, store, runner, aggregation, CLI."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.campaign import (
    ROW_REGISTRY,
    CampaignSpec,
    CampaignStore,
    CellResult,
    JobSpec,
    RowDefinition,
    aggregate_campaign,
    aggregate_cells,
    bootstrap_median_ci,
    execute_cell_block,
    execute_job,
    register_row,
    render_report,
    render_status,
    run_campaign,
)
from repro.cli import ABLATION_ROWS, TABLE1_ROWS

_CONFIGS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs"
)


def _tiny_spec(**overrides):
    data = {
        "name": "tiny",
        "rows": [{"row": "bounded", "sizes": [8], "seeds": [0, 1]}],
    }
    data.update(overrides)
    return CampaignSpec.from_dict(data)


def _store(tmp_path):
    return CampaignStore(os.path.join(str(tmp_path), "results.jsonl"))


class TestSpec:
    def test_roundtrip(self):
        spec = CampaignSpec.from_dict({
            "name": "x",
            "description": "d",
            "defaults": {"seeds": [0, 1]},
            "rows": [
                {"row": "bounded", "sizes": [8, 12]},
                {"row": "abl-beta", "options": {"beta": 0.6}},
            ],
        })
        again = CampaignSpec.from_dict(spec.to_dict())
        assert [j.to_dict() for j in again.jobs()] == [
            j.to_dict() for j in spec.jobs()
        ]

    def test_string_row_entries_use_registry_defaults(self):
        spec = CampaignSpec.from_dict({"name": "x", "rows": ["path"]})
        jobs = list(spec.jobs())
        definition = ROW_REGISTRY["path"]
        assert len(jobs) == (
            len(definition.default_sizes) * len(definition.default_seeds)
        )

    def test_campaign_defaults_override_registry(self):
        spec = CampaignSpec.from_dict({
            "name": "x",
            "defaults": {"sizes": [8], "seeds": [7]},
            "rows": ["bounded"],
        })
        jobs = list(spec.jobs())
        assert [(j.size, j.seed) for j in jobs] == [(8, 7)]

    def test_validate_rejects_unknown_rows(self):
        spec = CampaignSpec.from_dict({"name": "x", "rows": ["nope"]})
        with pytest.raises(ValueError, match="nope"):
            spec.validate()

    def test_config_requires_rows(self):
        with pytest.raises(ValueError):
            CampaignSpec.from_dict({"name": "x", "rows": []})

    def test_unknown_entry_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys \\['size'\\]"):
            CampaignSpec.from_dict(
                {"name": "x", "rows": [{"row": "path", "size": [2048]}]}
            )
        with pytest.raises(ValueError, match="unknown keys \\['seed'\\]"):
            CampaignSpec.from_dict(
                {"name": "x", "defaults": {"seed": [0]}, "rows": ["path"]}
            )

    def test_explicit_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="empty 'sizes'"):
            CampaignSpec.from_dict(
                {"name": "x", "rows": [{"row": "path", "sizes": []}]}
            )
        with pytest.raises(ValueError, match="empty 'seeds'"):
            CampaignSpec.from_dict(
                {"name": "x", "rows": [{"row": "path", "seeds": []}]}
            )
        with pytest.raises(ValueError, match="empty 'seeds'"):
            CampaignSpec.from_dict(
                {"name": "x", "defaults": {"seeds": []}, "rows": ["path"]}
            )

    def test_job_key_is_content_addressed(self):
        a = JobSpec(row="path", size=64, seed=0)
        b = JobSpec.from_dict({"seed": 0, "size": 64, "row": "path"})
        assert a.key() == b.key()
        assert a.key() != JobSpec(row="path", size=64, seed=1).key()
        assert a.key() != JobSpec(
            row="path", size=64, seed=0, options=(("failure", 0.1),)
        ).key()

    def test_seed_block_jobspec(self):
        block = JobSpec(row="path", size=64, seeds=(0, 1, 2))
        # Per-cell keys use the legacy single-seed payload shape, so a
        # blocked campaign aliases the records single-seed runs wrote.
        assert block.cell_keys() == [
            JobSpec(row="path", size=64, seed=s).key() for s in (0, 1, 2)
        ]
        assert [c.seed for c in block.cells()] == [0, 1, 2]
        assert block.to_dict() == {"row": "path", "size": 64, "seeds": [0, 1, 2]}
        assert JobSpec.from_dict(block.to_dict()) == block
        assert block.with_seeds((1,)).seed == 1
        with pytest.raises(ValueError, match="block"):
            block.seed
        with pytest.raises(ValueError):
            JobSpec(row="path", size=64)  # neither seed nor seeds
        with pytest.raises(ValueError):
            JobSpec.from_dict(
                {"row": "path", "size": 64, "seed": 0, "seeds": [1]}
            )

    def test_jobs_is_per_cell_view_of_job_blocks(self):
        spec = _tiny_spec()
        blocks = list(spec.job_blocks())
        assert [b.seeds for b in blocks] == [(0, 1)]
        assert [j.to_dict() for j in spec.jobs()] == [
            c.to_dict() for b in blocks for c in b.cells()
        ]

    def test_registry_covers_all_cli_rows(self):
        # repro table1 / repro ablations run exactly their config's rows.
        table1 = CampaignSpec.from_json_file(
            os.path.join(_CONFIGS, "table1.json")
        )
        assert [plan.to_dict() for plan in table1.rows] == [
            {"row": row} for row in TABLE1_ROWS
        ]
        ablations = CampaignSpec.from_json_file(
            os.path.join(_CONFIGS, "ablations.json")
        )
        assert [plan.to_dict() for plan in ablations.rows] == list(
            ABLATION_ROWS
        )
        assert set(TABLE1_ROWS) <= set(ROW_REGISTRY)

    def test_non_int_axis_literals_hash_like_ints(self, tmp_path):
        # JSON configs may carry 8.0 or "8"; keys must match the worker's
        # int-coerced round trip or resume never gets a cache hit.
        float_spec = CampaignSpec.from_dict({
            "name": "x",
            "rows": [{"row": "path", "sizes": [16.0], "seeds": ["0"]}],
        })
        int_spec = CampaignSpec.from_dict({
            "name": "x",
            "rows": [{"row": "path", "sizes": [16], "seeds": [0]}],
        })
        assert [j.key() for j in float_spec.jobs()] == [
            j.key() for j in int_spec.jobs()
        ]
        store = _store(tmp_path)
        run_campaign(float_spec, store)
        again = run_campaign(float_spec, store)
        assert again.ran == 0 and again.skipped == 1
        assert aggregate_campaign(float_spec, store)["path"][0].n == 16

    def test_overlapping_rows_execute_and_count_once(self, tmp_path):
        from repro.campaign import campaign_status

        spec = CampaignSpec.from_dict({
            "name": "x",
            "rows": [
                {"row": "path", "sizes": [8], "seeds": [0]},
                {"row": "path", "sizes": [8, 16], "seeds": [0]},
            ],
        })
        store = _store(tmp_path)
        report = run_campaign(spec, store)
        assert report.total == 2 and report.ok == 2  # not 3
        assert store.line_count() == 2
        point = aggregate_campaign(spec, store)["path"][0]
        assert point.seeds == 1  # the shared cell is not double-counted
        assert campaign_status(spec, store)["path"]["total"] == 2


class TestStore:
    def test_append_load_last_wins(self, tmp_path):
        store = _store(tmp_path)
        store.append({"key": "k1", "job": {}, "status": "error"})
        store.append({"key": "k1", "job": {}, "status": "ok", "result": {}})
        store.append({"key": "k2", "job": {}, "status": "ok", "result": {}})
        assert store.completed_keys() == {"k1", "k2"}
        assert store.line_count() == 3

    def test_torn_final_line_is_skipped(self, tmp_path):
        store = _store(tmp_path)
        store.append({"key": "k1", "job": {}, "status": "ok"})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "stat')  # killed mid-write
        with pytest.warns(RuntimeWarning, match="corrupt line"):
            assert store.completed_keys() == {"k1"}

    def test_missing_file_is_empty(self, tmp_path):
        assert _store(tmp_path).load() == {}


class TestRunner:
    def test_half_finished_block_reruns_only_missing_seeds(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "x",
            "rows": [{"row": "bounded", "sizes": [8], "seeds": [0, 1, 2]}],
        })
        store = _store(tmp_path)
        first = run_campaign(spec, store)
        assert first.ok == 3
        # Drop one cell's record: simulate a half-finished blocked run.
        records = [
            r for r in store.load().values() if r["job"]["seed"] != 1
        ]
        with open(store.path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        again = run_campaign(spec, store)
        assert again.ran == 1 and again.skipped == 2 and again.ok == 1
        assert {r["job"]["seed"] for r in store.load().values()} == {0, 1, 2}
        # And the recomputed cell is identical to a fresh serial run.
        fresh = _store(tmp_path / "fresh")
        run_campaign(spec, fresh)
        by_seed = lambda s: {
            r["job"]["seed"]: r["result"] for r in s.load().values()
        }
        assert by_seed(store) == by_seed(fresh)

    def test_blocked_campaign_matches_serial_sweep_aggregates(self, tmp_path):
        from repro.campaign import knowledge_for, run_cells
        from repro.campaign.registry import GRAPH_FAMILIES, get_row
        from repro.sim.models import MODELS

        spec = CampaignSpec.from_dict({
            "name": "x",
            "rows": [{"row": "bounded", "sizes": [8, 12], "seeds": [0, 1, 2]}],
        })
        store = _store(tmp_path)
        assert run_campaign(spec, store).all_ok
        campaign_points = aggregate_campaign(spec, store, extended=False)
        definition = get_row("bounded")
        serial_points = []
        for size in (8, 12):
            graph = GRAPH_FAMILIES[definition.graph_family](size)
            serial_points.append(aggregate_cells(run_cells(
                graph, MODELS[definition.model],
                definition.builder(graph, {}), label="bounded", size=size,
                seeds=(0, 1, 2), knowledge=knowledge_for(graph),
            )))
        assert [p.__dict__ for p in campaign_points["bounded"]] == [
            p.__dict__ for p in serial_points
        ]

    def test_execution_options_do_not_change_measurements(self, tmp_path):
        from repro.sim.resolution import numpy_available

        base = lambda opts: CampaignSpec.from_dict({
            "name": "x",
            "rows": [{"row": "bounded", "sizes": [8], "seeds": [0, 1],
                      "options": opts}],
        })
        plain_store, fast_store = _store(tmp_path / "a"), _store(tmp_path / "b")
        run_campaign(base({}), plain_store)
        options = {"lockstep": True}
        if numpy_available():
            options["resolution"] = "numpy"
        run_campaign(base(options), fast_store)
        plain = [r["result"] for r in sorted(
            plain_store.load().values(), key=lambda r: r["job"]["seed"]
        )]
        fast = [r["result"] for r in sorted(
            fast_store.load().values(), key=lambda r: r["job"]["seed"]
        )]
        # The ``soa`` and ``soa_reason_*`` extras keys are execution-path
        # diagnostics (which engine ran the cell, and its dispatch
        # verdict) — they vary with execution options by design.
        # Measurements must still be identical.
        def strip_diagnostics(r):
            extras = r["extras"]
            for key in [k for k in extras if k.startswith("soa_reason_")]:
                del extras[key]
            return extras.pop("soa", None)

        soa_flags = [strip_diagnostics(r) for r in fast]
        for r in plain:
            strip_diagnostics(r)
        assert plain == fast
        assert all(flag in (None, 0.0, 1.0) for flag in soa_flags)

    def test_contention_hist_option_adds_extras(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "x",
            "rows": [{"row": "bounded", "sizes": [8], "seeds": [0],
                      "options": {"contention_hist": True}}],
        })
        store = _store(tmp_path)
        assert run_campaign(spec, store).all_ok
        (record,) = store.ok_records()
        extras = record["result"]["extras"]
        assert extras["ch_active_slots"] > 0
        assert "ch_collision_rate" in extras

    def test_serial_run_and_resume(self, tmp_path):
        spec, store = _tiny_spec(), _store(tmp_path)
        report = run_campaign(spec, store)
        assert report.ok == 2 and report.all_ok
        again = run_campaign(spec, store)
        assert again.ran == 0 and again.skipped == 2
        assert store.line_count() == 2

    def test_crashing_cell_is_isolated(self, tmp_path, crashing_row):
        spec = CampaignSpec.from_dict({
            "name": "x",
            "rows": [
                {"row": crashing_row, "sizes": [4], "seeds": [0]},
                {"row": "bounded", "sizes": [8], "seeds": [0]},
            ],
        })
        store = _store(tmp_path)
        report = run_campaign(spec, store)
        assert report.errors == 1 and report.ok == 1
        records = list(store.load().values())
        failed = [r for r in records if r["status"] == "error"]
        assert len(failed) == 1 and "boom" in failed[0]["error"]

    def test_timeout_kills_only_the_slow_cell(self, tmp_path, sleeping_row):
        spec = CampaignSpec.from_dict({
            "name": "x",
            "rows": [
                {"row": sleeping_row, "sizes": [4], "seeds": [0]},
                {"row": "bounded", "sizes": [8], "seeds": [0]},
            ],
        })
        store = _store(tmp_path)
        report = run_campaign(spec, store, timeout=1)
        assert report.timeouts == 1 and report.ok == 1

    def test_budget_past_what_alarm_takes_is_clamped(self):
        # signal.alarm takes a C int of seconds, and this block's budget
        # (timeout x seeds) overflows to inf: clamped, never an error.
        records = execute_job({
            "job": {"row": "path", "size": 16, "seeds": [0, 1]},
            "timeout": 1e308,
        })
        assert [r["status"] for r in records] == ["ok", "ok"]

    def test_failed_cells_retry_on_rerun(self, tmp_path, crashing_row):
        spec = CampaignSpec.from_dict({
            "name": "x", "rows": [{"row": crashing_row, "sizes": [4], "seeds": [0]}]
        })
        store = _store(tmp_path)
        run_campaign(spec, store)
        report = run_campaign(spec, store)
        assert report.ran == 1  # errored cell is not treated as cached

    def test_execute_job_record_shape(self):
        records = execute_job(
            {"job": {"row": "path", "size": 16, "seed": 0}, "timeout": None}
        )
        assert len(records) == 1
        record = records[0]
        assert record["status"] == "ok"
        assert record["key"] == JobSpec(row="path", size=16, seed=0).key()
        assert record["result"]["n"] == 16
        # Records must survive a JSON round-trip unchanged (store contract).
        assert json.loads(json.dumps(record)) == record

    def test_execute_job_block_produces_per_seed_records(self):
        records = execute_job({
            "job": {"row": "path", "size": 16, "seeds": [0, 1]},
            "timeout": None,
        })
        assert [r["status"] for r in records] == ["ok", "ok"]
        # Block records carry per-cell keys + single-seed payloads, so
        # they alias what a single-seed campaign would have stored.
        assert [r["key"] for r in records] == [
            JobSpec(row="path", size=16, seed=0).key(),
            JobSpec(row="path", size=16, seed=1).key(),
        ]
        assert [r["job"]["seed"] for r in records] == [0, 1]
        solo = execute_job(
            {"job": {"row": "path", "size": 16, "seed": 1}, "timeout": None}
        )[0]
        assert records[1]["result"] == solo["result"]


class TestLossyRows:
    def test_loss_rate_blocks_are_sharding_independent(self):
        from repro.campaign.registry import execute_cell_block

        opts = {"loss_rate": 0.4}
        both = execute_cell_block("bounded", 8, (0, 1), opts)
        solo = (
            execute_cell_block("bounded", 8, (0,), opts)
            + execute_cell_block("bounded", 8, (1,), opts)
        )
        assert [c.to_dict() for c in both] == [c.to_dict() for c in solo]

    def test_loss_rate_soa_matches_serial_measurements(self):
        from repro.campaign.registry import execute_cell_block
        from repro.sim.resolution import numpy_available

        if not numpy_available():
            pytest.skip("the SoA lossy path needs numpy")
        opts = {"loss_rate": 0.4}
        serial = execute_cell_block("bounded", 8, (0, 1, 2), opts)
        fast = execute_cell_block(
            "bounded", 8, (0, 1, 2),
            {**opts, "lockstep": True, "resolution": "numpy"},
        )
        fast_dicts = [c.to_dict() for c in fast]
        for cell in fast_dicts:
            # The whole block rode the vectorized drop-mask path...
            assert cell["extras"].pop("soa") == 1.0
            assert cell["extras"].pop("soa_reason_ok") == 1.0
        # ...and every measurement matches the serial oracle exactly.
        assert [c.to_dict() for c in serial] == fast_dicts

    def test_loss_rate_rejected_on_custom_cell_rows(self, crashing_row):
        from repro.campaign.registry import execute_cell_block
        from repro.sim.config import ExecutionConfigError

        with pytest.raises(ExecutionConfigError, match="loss_rate"):
            execute_cell_block(crashing_row, 4, (0,), {"loss_rate": 0.1})

    def test_loss_rate_on_a_custom_cell_row_fails_at_the_door(
        self, tmp_path, capsys
    ):
        """Spec load refuses the pair with one line naming the row and
        the option: exit 2, and no cell runs, so no store is written."""
        from repro.cli import main

        config = tmp_path / "lossy-beta.json"
        config.write_text(json.dumps({
            "name": "lossy-beta",
            "rows": [{"row": "abl-beta", "seeds": [0],
                      "options": {"loss_rate": 0.2}}],
        }))
        out = tmp_path / "out"
        assert main(["campaign", "run", str(config), "--out", str(out)]) == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert "'abl-beta'" in lines[0] and "loss_rate" in lines[0]
        assert not out.exists()


class TestFusion:
    """Rows that are one simulation run once for all of them."""

    GROUPS = [
        ("path", "lb-path", "figure1"),
        ("cd", "abl-ps-thm12"),
        ("abl-probe", "abl-ps-thm11"),
    ]

    def test_fusion_map(self):
        from repro.campaign.registry import simulation_key

        by_key = {}
        for name in ROW_REGISTRY:
            if name.startswith("_"):
                continue  # rows the test fixtures register
            key = simulation_key(name, 12, {})
            if key is not None:
                by_key.setdefault(key, []).append(name)
        fused = sorted(sorted(rows) for rows in by_key.values() if len(rows) > 1)
        assert fused == sorted(sorted(rows) for rows in self.GROUPS)
        # The beta ablation is a custom cell: no key, never fused.
        assert simulation_key("abl-beta", 40, {}) is None
        assert "abl-beta" not in {r for rows in by_key.values() for r in rows}

    def test_options_and_sizes_split_keys(self):
        from repro.campaign.registry import simulation_key

        assert simulation_key("path", 16, {}) != simulation_key("lb-path", 32, {})
        assert simulation_key("cd", 12, {}) != simulation_key(
            "abl-ps-thm12", 12, {"epsilon": 0.25}
        )
        assert simulation_key("decay", 16, {}) != simulation_key(
            "decay", 16, {"jam": "random:rate=0.15"}
        )
        # An explicit default aliases the omitted option, as in cell keys.
        assert simulation_key("path", 16, {"resolution": "bitmask"}) \
            == simulation_key("lb-path", 16, {})

    def test_theorem11_cd_params_are_the_probe_params(self):
        from repro.broadcast import theorem11_params
        from repro.campaign.registry import _probe_params

        for n in range(2, 300):
            for failure in (0.01, 0.02, 0.05):
                assert _probe_params(n, {"failure": failure}, True) \
                    == theorem11_params(n, "CD", failure=failure)

    @pytest.mark.parametrize("rows", GROUPS)
    @pytest.mark.parametrize("options", [{}, {"contention_hist": True}])
    def test_fused_cells_equal_one_row_blocks(self, rows, options):
        from repro.campaign.registry import (
            execute_cell_block,
            execute_fused_block,
        )

        fused = execute_fused_block(8, options, [(row, (0, 1)) for row in rows])
        for row, cells in zip(rows, fused):
            alone = execute_cell_block(row, 8, (0, 1), options)
            assert [c.to_dict() for c in cells] == [c.to_dict() for c in alone]

    def test_member_extras_come_from_its_own_observer(self):
        from repro.campaign.registry import (
            execute_cell_block,
            execute_fused_block,
        )

        path, lb_path = execute_fused_block(
            16, {}, [("path", (1,)), ("lb-path", (0, 1, 2))]
        )
        assert [c.to_dict() for c in path] \
            == [c.to_dict() for c in execute_cell_block("path", 16, (1,), {})]
        assert path[0].extras == {}
        assert [c.to_dict() for c in lb_path] == [
            c.to_dict()
            for c in execute_cell_block("lb-path", 16, (0, 1, 2), {})
        ]

    def test_rows_that_are_not_one_simulation_refused(self):
        from repro.campaign.registry import execute_fused_block

        with pytest.raises(ValueError, match="do not share one simulation"):
            execute_fused_block(8, {}, [("path", (0,)), ("bounded", (0,))])
        with pytest.raises(ValueError, match="do not share one simulation"):
            execute_fused_block(40, {}, [("abl-beta", (0,))] * 2)

    def test_lockstep_observer_member_falls_back_for_every_seed(self):
        from repro.campaign.registry import execute_fused_block
        from repro.sim.resolution import numpy_available

        if not numpy_available():
            pytest.skip("lock-step dispatch verdicts need numpy")
        options = {"lockstep": True, "resolution": "numpy"}
        path, lb_path = execute_fused_block(
            64, options, [("path", (0, 1)), ("lb-path", (0, 1))]
        )
        for cell in path + lb_path:
            assert cell.extras["soa_reason_observers"] == 1.0
        serial_path, _ = execute_fused_block(
            64, {}, [("path", (0, 1)), ("lb-path", (0, 1))]
        )
        assert aggregate_cells(path) == aggregate_cells(serial_path)

    def test_block_records_split_each_seed_time(self):
        from repro.campaign.runner import execute_block

        path, lb_path = execute_block({
            "jobs": [
                {"row": "path", "size": 16, "seeds": [0, 1]},
                {"row": "lb-path", "size": 16, "seeds": [0, 1, 2]},
            ],
            "timeout": None,
        })
        assert [r["key"] for r in path] == [
            JobSpec(row="path", size=16, seed=seed).key() for seed in (0, 1)
        ]
        # Seeds 0 and 1 produced two records each, seed 2 one: every
        # seed's share of the batch is split across its records.
        assert path[0]["elapsed"] == lb_path[0]["elapsed"]
        assert lb_path[2]["elapsed"] == pytest.approx(
            2 * lb_path[0]["elapsed"], abs=2e-6
        )

    def test_batch_failure_runs_each_seed_once_for_all_members(
        self, monkeypatch
    ):
        import repro.campaign.registry as registry_mod
        from repro.campaign.runner import execute_block

        real = registry_mod.execute_fused_block
        calls = []

        def fails_batched(size, options, members):
            calls.append([(row, tuple(seeds)) for row, seeds in members])
            if len({s for _, seeds in members for s in seeds}) > 1:
                raise RuntimeError("batch boom")
            return real(size, options, members)

        monkeypatch.setattr(registry_mod, "execute_fused_block", fails_batched)
        path, lb_path = execute_block({
            "jobs": [
                {"row": "path", "size": 16, "seeds": [0, 1]},
                {"row": "lb-path", "size": 16, "seeds": [1]},
            ],
            "timeout": None,
        })
        assert calls == [
            [("path", (0, 1)), ("lb-path", (1,))],
            [("path", (0,))],
            [("path", (1,)), ("lb-path", (1,))],
        ]
        monkeypatch.setattr(registry_mod, "execute_fused_block", real)
        alone = execute_job({
            "job": {"row": "lb-path", "size": 16, "seed": 1}, "timeout": None,
        })
        assert [r["status"] for r in path + lb_path] == ["ok"] * 3
        assert lb_path[0]["result"] == alone[0]["result"]


@pytest.fixture
def crashing_row():
    def cell(row, size, seed, options):
        raise ValueError("boom")

    name = "_test-crash"
    register_row(RowDefinition(
        name=name, title="crash", model="LOCAL", graph_family="path",
        builder=lambda g, o: None, default_sizes=(4,), default_seeds=(0,),
        custom_cell=cell,
    ))
    yield name
    ROW_REGISTRY.pop(name, None)


@pytest.fixture
def sleeping_row():
    def cell(row, size, seed, options):
        time.sleep(30)

    name = "_test-sleep"
    register_row(RowDefinition(
        name=name, title="sleep", model="LOCAL", graph_family="path",
        builder=lambda g, o: None, default_sizes=(4,), default_seeds=(0,),
        custom_cell=cell,
    ))
    yield name
    ROW_REGISTRY.pop(name, None)


class TestAggregate:
    def _cells(self, values):
        return [
            CellResult(
                label="x", size=8, n=8, max_degree=2, diameter=7, seed=i,
                delivered=True, duration=v, max_energy=v / 2, mean_energy=v / 4,
            )
            for i, v in enumerate(values)
        ]

    def test_extended_stats(self):
        point = aggregate_cells(self._cells([10.0, 20.0, 30.0]), extended=True)
        assert point.time_median == 20.0
        assert point.extras["time_min"] == 10.0
        assert point.extras["time_max"] == 30.0
        assert point.extras["time_stdev"] == 10.0
        assert (
            point.extras["time_ci_lo"]
            <= point.time_median
            <= point.extras["time_ci_hi"]
        )

    def test_flag_extras_aggregate_conjunctively(self):
        # One failing seed must flag the whole group, matching the
        # serial lower-bound runners' AND over seeds.
        cells = self._cells([10.0, 20.0, 30.0])
        for i, ok in enumerate((1.0, 1.0, 0.0)):
            cells[i].extras = {"bound_holds": ok, "lb_ok": ok, "le_time": 5.0 + i}
        point = aggregate_cells(cells)
        assert point.extras["bound_holds"] == 0.0
        assert point.extras["lb_ok"] == 0.0
        assert point.extras["le_time"] == 6.0  # non-flags stay medians

    def test_lb_path_cell_reports_theorem1_bound(self, monkeypatch):
        from repro.broadcast import run_broadcast
        from repro.broadcast.path import path_broadcast_protocol
        from repro.campaign.cells import knowledge_for
        from repro.graphs import path_graph
        from repro.lowerbounds import energy_before_reception
        from repro.sim import LOCAL, ExecutionConfig
        from repro.sim.trace import Trace

        def no_trace(self, event):
            raise AssertionError("the lb-path row recorded a trace")

        with monkeypatch.context() as patched:
            patched.setattr(Trace, "record", no_trace)
            (cell,) = execute_cell_block("lb-path", 64, (0,), {})
        assert cell.extras["lower_bound"] == pytest.approx(6 / 5)
        assert cell.extras["lb_ok"] == 1.0
        assert cell.extras["worst_pre_reception"] >= cell.extras["lower_bound"]
        # The row's observer measures what the trace reference measures
        # on the same run.
        graph = path_graph(64)
        traced = run_broadcast(
            graph, LOCAL, path_broadcast_protocol(oriented=True), seed=0,
            knowledge=knowledge_for(graph),
            exec_config=ExecutionConfig(record_trace=True),
        )
        assert cell.extras["worst_pre_reception"] == float(
            energy_before_reception(traced).worst
        )

    def test_plain_aggregation_has_no_extended_keys(self):
        point = aggregate_cells(self._cells([10.0, 20.0]))
        assert "time_min" not in point.extras

    def test_no_row_column_reads_an_extended_extra(self):
        """Reports aggregate without the extended extras, so a column
        naming one would print blank cells."""
        cells = self._cells([10.0, 20.0])
        extended = set(aggregate_cells(cells, extended=True).extras)
        extended -= set(aggregate_cells(cells).extras)
        assert "time_ci_lo" in extended
        hist = ("ch_mean_load", "ch_collision_rate")
        for name, definition in ROW_REGISTRY.items():
            columns = set(definition.columns) | set(hist)
            assert not columns & extended, name

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            aggregate_cells([])

    def test_bootstrap_ci_deterministic(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        assert bootstrap_median_ci(values, seed=7) == bootstrap_median_ci(
            values, seed=7
        )
        lo, hi = bootstrap_median_ci(values, seed=7)
        assert lo <= hi

    def test_cd_bound_tracks_epsilon_option(self, tmp_path):
        # The Theorem 12 bound divides by epsilon: halving epsilon must
        # double the ratio column for the same measurements.
        spec_for = lambda eps: CampaignSpec.from_dict({
            "name": "x",
            "rows": [{"row": "cd", "sizes": [8], "seeds": [0],
                      "options": {"epsilon": eps}}],
        })
        from repro.campaign.registry import get_row, resolve_bounds

        definition = get_row("cd")
        metric, fn_half = resolve_bounds(definition, {"epsilon": 0.5})["log^2n/llog"]
        _, fn_quarter = resolve_bounds(definition, {"epsilon": 0.25})["log^2n/llog"]
        store = _store(tmp_path)
        run_campaign(spec_for(0.5), store)
        point = aggregate_campaign(spec_for(0.5), store)["cd[epsilon=0.5]"][0]
        assert metric == "energy"
        assert fn_quarter(point) == pytest.approx(2 * fn_half(point))

    def test_serial_table1_rows_share_registry(self, tmp_path):
        # A row's table carries the registry title and bounds columns.
        spec = CampaignSpec.from_dict({
            "name": "x", "rows": [{"row": "bounded", "sizes": [8], "seeds": [0]}],
        })
        store = _store(tmp_path)
        assert run_campaign(spec, store).all_ok
        assert aggregate_campaign(spec, store)["bounded"][0].n == 8
        table = render_report(spec, store)
        assert "Corollary 13" in table and "log n ratio" in table

    def test_option_variants_aggregate_separately(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "x",
            "rows": [
                {"row": "abl-beta", "sizes": [12], "seeds": [0],
                 "options": {"beta": 0.15}},
                {"row": "abl-beta", "sizes": [12], "seeds": [0],
                 "options": {"beta": 0.6}},
            ],
        })
        store = _store(tmp_path)
        assert run_campaign(spec, store).all_ok
        points = aggregate_campaign(spec, store)
        assert set(points) == {"abl-beta[beta=0.15]", "abl-beta[beta=0.6]"}
        assert points["abl-beta[beta=0.15]"][0].extras["lemma14_bound"] == 0.3
        assert points["abl-beta[beta=0.6]"][0].extras["lemma14_bound"] == 1.2
        report = render_report(spec, store)
        assert "beta=0.15" in report and "beta=0.6" in report

    def test_ablation_cell_extras(self):
        (cell,) = execute_cell_block("abl-beta", 20, (0,), {"beta": 0.5})
        assert cell.extras["lemma14_bound"] == 1.0
        assert 0.0 <= cell.extras["edge_cut_rate"] <= 1.0


class TestReportRendering:
    def test_status_and_report(self, tmp_path):
        spec, store = _tiny_spec(), _store(tmp_path)
        status = render_status(spec, store)
        assert "0/2 cells complete" in status and "2 pending" in status
        assert "(no completed cells)" in render_report(spec, store)
        run_campaign(spec, store)
        assert "2/2 cells complete" in render_status(spec, store)
        report = render_report(spec, store)
        assert "Corollary 13" in report and "log n ratio" in report

    def test_the_report_computes_no_bootstrap_interval(
        self, tmp_path, monkeypatch
    ):
        """No column prints an interval, so rendering draws none."""
        from repro.campaign import cells

        spec, store = _tiny_spec(), _store(tmp_path)
        run_campaign(spec, store)
        expected = render_report(spec, store)

        def refuse(*args, **kwargs):
            raise AssertionError("render_report drew a bootstrap interval")

        monkeypatch.setattr(cells, "bootstrap_median_ci", refuse)
        assert render_report(spec, store) == expected
        with pytest.raises(AssertionError):
            aggregate_campaign(spec, store)


class TestCampaignCLI:
    def _config(self, tmp_path):
        path = os.path.join(str(tmp_path), "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"name": "cli", "rows": [
                    {"row": "path", "sizes": [16], "seeds": [0, 1]}
                ]},
                handle,
            )
        return path

    def test_run_status_report(self, tmp_path, capsys):
        from repro.cli import main

        config = self._config(tmp_path)
        out = os.path.join(str(tmp_path), "out")
        assert main(["campaign", "run", config, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "2 computed" in stdout and "Thm 21" in stdout
        assert main(["campaign", "status", config, "--out", out]) == 0
        assert "2/2 cells complete" in capsys.readouterr().out
        assert main(["campaign", "report", config, "--out", out]) == 0
        assert "2n time ratio" in capsys.readouterr().out

    def test_run_twice_appends_nothing(self, tmp_path, capsys):
        from repro.cli import main

        config = self._config(tmp_path)
        out = os.path.join(str(tmp_path), "out")
        main(["campaign", "run", config, "--out", out])
        store = CampaignStore(os.path.join(out, "results.jsonl"))
        before = store.line_count()
        assert main(["campaign", "run", config, "--out", out]) == 0
        capsys.readouterr()
        assert store.line_count() == before

    def test_shipped_configs_parse_and_validate(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for name in ("table1.json", "ablations.json", "smoke.json"):
            spec = CampaignSpec.from_json_file(
                os.path.join(here, "configs", name)
            )
            spec.validate()
            assert list(spec.jobs())

    def test_smoke_config_is_two_cells(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = CampaignSpec.from_json_file(
            os.path.join(here, "configs", "smoke.json")
        )
        assert len(list(spec.jobs())) == 2


class TestOneDoorTables:
    """``repro table1`` and ``repro ablations`` print what ``campaign
    report`` prints for a config listing the same row entries."""

    def _campaign_report(self, tmp_path, capsys, config):
        from repro.cli import main

        out = str(tmp_path / "out")
        assert main(["campaign", "run", config, "--out", out]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", config, "--out", out]) == 0
        return capsys.readouterr().out

    def test_table1_equals_campaign_report(self, tmp_path, capsys):
        from repro.cli import main

        config = tmp_path / "scaled.json"
        config.write_text(json.dumps({"name": "scaled", "rows": [
            {"row": "bounded", "sizes": [4, 6, 8], "seeds": [0]},
            {"row": "lb-reduction", "sizes": [2, 4, 8], "seeds": [0]},
        ]}))
        expected = self._campaign_report(tmp_path, capsys, str(config))
        assert main([
            "table1", "bounded", "lb-reduction",
            "--seeds", "1", "--sizes-scale", "0.5",
        ]) == 0
        assert capsys.readouterr().out == expected

    def test_ablations_equal_campaign_report(self, tmp_path, capsys):
        from repro.cli import main

        expected = self._campaign_report(
            tmp_path, capsys, os.path.join(_CONFIGS, "ablations.json")
        )
        assert main(["ablations"]) == 0
        assert capsys.readouterr().out == expected

    def test_leaves_no_files_behind(self, tmp_path, monkeypatch, capsys):
        import tempfile

        from repro.cli import main

        temp_root = tmp_path / "tmp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        monkeypatch.chdir(tmp_path)
        assert main(["table1", "bounded", "--seeds", "1",
                     "--sizes-scale", "0.25"]) == 0
        assert "Corollary 13" in capsys.readouterr().out
        assert os.listdir(tmp_path) == ["tmp"]
        assert os.listdir(temp_root) == []

    def test_failed_cell_exits_1_with_summary(self, crashing_row, capsys):
        from repro.cli import main

        assert main(["table1", crashing_row]) == 1
        out = capsys.readouterr().out
        assert "1 errors" in out and "(no completed cells)" in out

    def test_unhonorable_option_exits_2_naming_the_row(self, capsys):
        from repro.cli import main

        assert main(["table1", "abl-beta", "--contention-hist"]) == 2
        out = capsys.readouterr().out
        assert "'abl-beta'" in out and "contention_hist" in out
        assert main(["table1", "bounded", "--churn", "bogus"]) == 2
        out = capsys.readouterr().out
        assert "'bounded'" in out and "churn" in out

    def test_report_never_imports_experiments(self, tmp_path, capsys):
        import subprocess
        import sys

        import repro
        from repro.cli import main

        config = tmp_path / "c.json"
        config.write_text(json.dumps({"name": "c", "rows": [
            {"row": "bounded", "sizes": [4], "seeds": [0]},
            {"row": "figure1", "sizes": [8], "seeds": [0]},
        ]}))
        out = str(tmp_path / "out")
        assert main(["campaign", "run", str(config), "--out", out]) == 0
        script = (
            "import sys, repro.cli\n"
            f"code = repro.cli.main(['campaign', 'report', {str(config)!r},"
            f" '--out', {out!r}])\n"
            "loaded = [m for m in sys.modules"
            " if m.startswith('repro.experiments')]\n"
            "assert code == 0 and not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "Fig.1" in done.stdout


class TestTable1Passthrough:
    def test_seeds_and_scale_flags(self, capsys):
        from repro.cli import main

        code = main(
            ["table1", "bounded", "--seeds", "1", "--sizes-scale", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Default sizes (8, 12, 16) scaled by 0.5 -> (4, 6, 8).
        assert "\n4  " in out and "\n8  " in out and "\n16 " not in out

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_bad_scale_exits_2_with_one_line(self, capsys, scale):
        from repro.cli import main

        assert main(["table1", "bounded", f"--sizes-scale={scale}"]) == 2
        assert capsys.readouterr().out == (
            "--sizes-scale must be a finite number > 0\n"
        )

    def test_scale_applies_to_ks_rows(self, capsys):
        from repro.cli import main

        assert main(
            ["table1", "lb-reduction", "--seeds", "1", "--sizes-scale", "0.5"]
        ) == 0
        assert "K_{2,k}" in capsys.readouterr().out

    def test_contention_hist_flag(self, capsys):
        from repro.cli import main

        # Every row runs with the histogram attached and the ch_*
        # columns rendered, the lower-bound rows included.
        for row, title in (
            ("bounded", "Corollary 13"), ("lb-reduction", "K_{2,k}"),
        ):
            assert main(
                ["table1", row, "--seeds", "1",
                 "--sizes-scale", "0.5", "--contention-hist"]
            ) == 0
            out = capsys.readouterr().out
            assert title in out and "ch_mean_load" in out

    def test_campaign_contention_hist_changes_cell_identity(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        config = os.path.join(str(tmp_path), "config.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump(
                {"name": "cli", "rows": [
                    {"row": "bounded", "sizes": [8], "seeds": [0]}
                ]},
                handle,
            )
        out = os.path.join(str(tmp_path), "out")
        assert main(
            ["campaign", "run", config, "--out", out, "--contention-hist"]
        ) == 0
        capsys.readouterr()
        # status WITH the flag sees the completed cell ...
        assert main(
            ["campaign", "status", config, "--out", out, "--contention-hist"]
        ) == 0
        assert "1/1 cells complete" in capsys.readouterr().out
        # ... status WITHOUT it addresses different cells (still pending).
        assert main(["campaign", "status", config, "--out", out]) == 0
        assert "0/1 cells complete" in capsys.readouterr().out
