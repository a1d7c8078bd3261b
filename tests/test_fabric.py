"""Fault-injection and differential tests for the campaign fabric.

The contract under test: whatever the fabric is subjected to — SIGKILL
mid-block, a wedged (SIGSTOPped) worker, cells that raise, cells that
sleep past their budget — the canonical store ends up with aggregates
byte-identical to the serial oracle's, and a resume computes only the
true delta.  Plus the subsystems the fabric rides on: crash-safe store
appends, prefer-ok shard merging, the O(aggregates) streaming reducer,
the events ledger, live status, run-all resolution, and the CLI/config
surface.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import time
import weakref

import pytest

import repro.campaign.fabric.workers as workers_mod
from repro.campaign import (
    ROW_REGISTRY,
    CampaignSpec,
    CampaignStore,
    RowDefinition,
    aggregate_campaign,
    aggregate_campaign_streaming,
    register_row,
    run_campaign,
    run_campaign_fabric,
    run_campaigns_fabric,
    stream_points,
)
from repro.campaign.fabric import (
    CRASH_ENV,
    EventLog,
    live_progress,
    merge_shards,
    read_events,
    render_events_summary,
    render_live_status,
    resolve_run_all,
    shard_dir_for,
    shard_path,
    summarize_events,
    watch_campaign,
)
from repro.campaign.fabric.reduce import StreamingCampaignAggregator
from repro.campaign.registry import (
    GRAPH_FAMILIES,
    GRAPH_FAMILY_MIN_SIZES,
    row_min_size,
    scaled_sizes,
)
from repro.campaign.runner import execute_job, plan_pending
from repro.campaign.store import STATUS_QUARANTINED, make_record
from repro.cli import main
from repro.sim import ExecutionConfig, Simulator
from repro.sim.config import ExecutionConfigError
from repro.sim.models import LOCAL


def _store(tmp_path, name="results.jsonl"):
    return CampaignStore(os.path.join(str(tmp_path), name))


def _spec(rows):
    return CampaignSpec.from_dict({"name": "fabtest", "rows": rows})


def _points_blob(points):
    return json.dumps(
        {k: [vars(p) for p in v] for k, v in points.items()},
        sort_keys=True, default=str,
    )


def _fabric(spec, store, **kwargs):
    kwargs.setdefault("backoff", 0.05)
    kwargs.setdefault("heartbeat", 0.2)
    kwargs.setdefault(
        "events_path",
        os.path.join(os.path.dirname(store.path), "events.jsonl"),
    )
    return run_campaign_fabric(spec, store, **kwargs)


@pytest.fixture
def flaky_row(tmp_path):
    """Fails (ValueError) for seed 1 on the first fabric attempt.

    ``execute_job`` retries a raising block per-seed before recording an
    error, so the cell must fail twice (block pass + per-seed fallback)
    for the *fabric* retry path to engage; the third call succeeds.
    """
    marker = str(tmp_path / "flaky.attempts")

    def cell(row, size, seed, options):
        from repro.campaign.registry import execute_cell

        if seed == 1:
            attempts = (
                os.path.getsize(marker) if os.path.exists(marker) else 0
            )
            if attempts < 2:
                with open(marker, "ab") as handle:
                    handle.write(b"x")
                raise ValueError("flaky boom")
        return execute_cell("path", size, seed, options)

    name = "_test-flaky"
    register_row(RowDefinition(
        name=name, title="flaky", model="LOCAL", graph_family="path",
        builder=lambda g, o: None, default_sizes=(8,), default_seeds=(0, 1),
        custom_cell=cell,
    ))
    yield name
    ROW_REGISTRY.pop(name, None)


@pytest.fixture
def sleepy_row():
    def cell(row, size, seed, options):
        time.sleep(30)

    name = "_test-sleepy"
    register_row(RowDefinition(
        name=name, title="sleepy", model="LOCAL", graph_family="path",
        builder=lambda g, o: None, default_sizes=(4,), default_seeds=(0,),
        custom_cell=cell,
    ))
    yield name
    ROW_REGISTRY.pop(name, None)


class TestStoreCrashSafety:
    def test_append_many_batch_roundtrip(self, tmp_path):
        store = _store(tmp_path)
        records = [
            make_record(f"k{i}", {"row": "r", "seed": i}, "ok", result={})
            for i in range(5)
        ]
        store.append_many(records)
        assert store.line_count() == 5
        assert set(store.load()) == {f"k{i}" for i in range(5)}

    def test_torn_trailing_line_warns_and_skips(self, tmp_path):
        store = _store(tmp_path)
        store.append(make_record("good", {}, "ok", result={}))
        with open(store.path, "a", encoding="utf-8") as handle:
            # A killed writer's torn tail: no trailing newline.
            handle.write('{"key": "torn", "status": "ok"')
        with pytest.warns(RuntimeWarning, match="skipped 1 corrupt"):
            records = store.load()
        assert set(records) == {"good"}

    def test_torn_but_parseable_tail_is_distrusted(self, tmp_path):
        store = _store(tmp_path)
        store.append(make_record("good", {}, "ok", result={}))
        with open(store.path, "a", encoding="utf-8") as handle:
            # Decodes as JSON, but the missing newline means the write
            # never completed — the 'elapsed' number may be clipped.
            handle.write('{"key": "tail", "status": "ok", "elapsed": 1}')
        with pytest.warns(RuntimeWarning):
            assert set(store.load()) == {"good"}

    def test_corrupt_middle_line_does_not_poison_rest(self, tmp_path):
        store = _store(tmp_path)
        store.append(make_record("a", {}, "ok", result={}))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write("{{{ not json\n")
        store.append(make_record("b", {}, "ok", result={}))
        with pytest.warns(RuntimeWarning):
            assert set(store.load()) == {"a", "b"}

    def test_compact_dedupes_in_place(self, tmp_path):
        store = _store(tmp_path)
        store.append(make_record("a", {}, "error", error="x"))
        store.append(make_record("a", {}, "ok", result={}))
        store.append(make_record("b", {}, "ok", result={}))
        stats = store.compact()
        assert stats == {"before": 3, "after": 2}
        assert store.line_count() == 2
        assert store.load()["a"]["status"] == "ok"

    def test_rewrite_removes_temp_on_failure(self, tmp_path):
        store = _store(tmp_path)
        store.append(make_record("a", {}, "ok", result={}))

        class Boom:
            def __iter__(self):
                raise RuntimeError("mid-rewrite")

        with pytest.raises(RuntimeError):
            store.rewrite(Boom())
        assert store.load()["a"]["status"] == "ok"  # old ledger intact
        leftovers = [
            name for name in os.listdir(tmp_path) if name.startswith(".store-")
        ]
        assert leftovers == []


class TestShardMerge:
    def test_ok_beats_later_error(self, tmp_path):
        store = _store(tmp_path)
        shard_dir = shard_dir_for(store)
        os.makedirs(shard_dir)
        ok = make_record("cell", {"seed": 0}, "ok", result={"n": 1})
        CampaignStore(shard_path(shard_dir, 0)).append(ok)
        time.sleep(0.01)
        CampaignStore(shard_path(shard_dir, 1)).append(
            make_record("cell", {"seed": 0}, "error", error="late crash")
        )
        stats = merge_shards(store, shard_dir)
        assert stats == {"shards": 2, "records": 1}
        assert store.load()["cell"]["status"] == "ok"
        assert not os.path.isdir(shard_dir)  # pruned after merge

    def test_latest_ts_wins_among_equals(self, tmp_path):
        store = _store(tmp_path)
        shard_dir = shard_dir_for(store)
        os.makedirs(shard_dir)
        old = make_record("cell", {}, "error", error="first")
        new = make_record("cell", {}, "error", error="second")
        new["ts"] = old["ts"] + 10
        CampaignStore(shard_path(shard_dir, 0)).append(new)
        CampaignStore(shard_path(shard_dir, 1)).append(old)
        merge_shards(store, shard_dir)
        assert store.load()["cell"]["error"] == "second"

    def test_empty_dir_is_noop(self, tmp_path):
        store = _store(tmp_path)
        assert merge_shards(store, shard_dir_for(store)) == {
            "shards": 0, "records": 0,
        }


class TestStreamingReducer:
    def test_matches_batch_aggregation(self, tmp_path):
        spec = _spec([
            {"row": "figure1", "sizes": [8, 12], "seeds": [0, 1]},
            {"row": "bounded", "sizes": [8], "seeds": [0, 1]},
        ])
        store = _store(tmp_path)
        run_campaign(spec, store, progress=None)
        assert _points_blob(aggregate_campaign(spec, store, extended=True)) \
            == _points_blob(aggregate_campaign_streaming(spec, store))

    def test_matches_batch_on_partial_store(self, tmp_path):
        spec = _spec([{"row": "bounded", "sizes": [8, 12], "seeds": [0, 1]}])
        store = _store(tmp_path)
        run_campaign(spec, store, progress=None)
        partial = _store(tmp_path, "partial.jsonl")
        partial.append_many(list(store.iter_records())[:-1])
        assert _points_blob(aggregate_campaign(spec, partial, extended=True)) \
            == _points_blob(aggregate_campaign_streaming(spec, partial))

    def test_failure_never_displaces_success(self, tmp_path):
        spec = _spec([{"row": "path", "sizes": [8], "seeds": [0]}])
        store = _store(tmp_path)
        run_campaign(spec, store, progress=None)
        (ok,) = store.ok_records()
        failure = make_record(ok["key"], ok["job"], "error", error="late")
        points = stream_points(spec, [ok, failure])
        assert _points_blob(points) == _points_blob(stream_points(spec, [ok]))

    def test_ignores_out_of_matrix_records(self):
        spec = _spec([{"row": "path", "sizes": [8], "seeds": [0]}])
        aggregator = StreamingCampaignAggregator(spec)
        foreign = execute_job(
            {"job": {"row": "path", "size": 16, "seed": 3}, "timeout": None}
        )[0]
        assert aggregator.add(foreign) is False
        assert aggregator.completed_cells() == 0

    def test_memory_stays_o_aggregates_on_10k_cells(self):
        """≥10k synthetic cells: the reducer retains at most one open
        bucket of CellResults and never the record dicts themselves."""
        sizes = list(range(4, 104))   # 100 sizes
        seeds = list(range(100))      # x 100 seeds = 10,000 cells
        spec = _spec([{"row": "path", "sizes": sizes, "seeds": seeds}])
        aggregator = StreamingCampaignAggregator(spec)

        class Record(dict):
            """Weakref-able record (plain dicts are not)."""

        refs = []
        max_open = 0
        for size in sizes:
            for seed in seeds:
                record = Record(
                    key=f"{size}-{seed}",
                    job={"row": "path", "size": size, "seed": seed,
                         "options": {}},
                    status="ok",
                    result={
                        "label": "path", "size": size, "n": size,
                        "max_degree": 2, "diameter": size - 1, "seed": seed,
                        "delivered": True, "duration": float(seed % 7 + size),
                        "max_energy": 3.0, "mean_energy": 1.5, "extras": {},
                    },
                )
                if seed == 0:
                    refs.append(weakref.ref(record))
                assert aggregator.add(record)
                max_open = max(max_open, aggregator.open_cells())
                del record
        assert aggregator.completed_cells() == 10_000
        assert aggregator.open_cells() == 0
        # One bucket (100 seeds) is the most ever buffered: O(aggregates),
        # not O(cells).
        assert max_open <= len(seeds)
        gc.collect()
        assert all(ref() is None for ref in refs)  # no record retained
        points = aggregator.points()
        assert len(points["path"]) == len(sizes)


class TestFabricDifferential:
    def test_matches_serial_oracle(self, tmp_path):
        # path at n=8 is figure1's simulation: the fabric fuses the two
        # blocks, the serial oracle runs them apart.
        spec = _spec([
            {"row": "figure1", "sizes": [8, 12], "seeds": [0, 1]},
            {"row": "bounded", "sizes": [8], "seeds": [0, 1]},
            {"row": "path", "sizes": [8], "seeds": [1, 2]},
        ])
        serial = _store(tmp_path / "serial")
        run_campaign(spec, serial, progress=None)
        fabric = _store(tmp_path / "fabric")
        report = _fabric(spec, fabric, workers=2)
        assert report.all_ok and report.ok == 8
        dispatched = [
            e for e in read_events(
                os.path.join(str(tmp_path), "fabric", "events.jsonl")
            )
            if e["ev"] == "block_dispatched"
        ]
        assert len(dispatched) == 3
        assert {"row": "figure1+path", "size": 8, "seeds": 4}.items() \
            <= next(e for e in dispatched if "+" in e["row"]).items()
        assert _points_blob(aggregate_campaign(spec, serial, extended=True)) \
            == _points_blob(aggregate_campaign(spec, fabric, extended=True)) \
            == _points_blob(aggregate_campaign_streaming(spec, fabric))

    def test_lossy_row_matches_serial_oracle(self, tmp_path):
        """The PR acceptance shape: a lossy many-seed row through
        ``--workers 2`` stores the same results as the serial runner,
        and (with numpy) the events ledger shows every block SoA-engaged.
        """
        from repro.sim.resolution import numpy_available

        options = {"loss_rate": 0.3}
        if numpy_available():
            options.update({"lockstep": True, "resolution": "numpy"})
        spec = _spec([{
            "row": "bounded", "sizes": [8, 12], "seeds": [0, 1],
            "options": options,
        }])
        serial = _store(tmp_path / "serial")
        run_campaign(spec, serial, progress=None)
        fabric = _store(tmp_path / "fabric")
        events_path = os.path.join(str(tmp_path), "events.jsonl")
        report = _fabric(spec, fabric, workers=2, events_path=events_path)
        assert report.all_ok and report.ok == 4

        def results(store):
            return [
                record["result"] for record in sorted(
                    store.load().values(),
                    key=lambda r: (r["job"]["size"], r["job"]["seed"]),
                )
            ]

        assert results(serial) == results(fabric)
        if numpy_available():
            done = [
                e for e in read_events(events_path)
                if e["ev"] == "block_completed"
            ]
            assert done and all(e.get("soa", 0) > 0 for e in done)
            assert sum(e["soa"] for e in done) == 4

    def test_resume_computes_only_delta(self, tmp_path):
        spec = _spec([{"row": "path", "sizes": [8, 12], "seeds": [0, 1]}])
        store = _store(tmp_path)
        assert _fabric(spec, store, workers=2).ok == 4
        again = _fabric(spec, store, workers=2)
        assert again.ran == 0 and again.skipped == 4
        grown = _spec([{"row": "path", "sizes": [8, 12, 16], "seeds": [0, 1]}])
        delta = _fabric(grown, store, workers=2)
        assert delta.ok == 2 and delta.skipped == 4

    def test_sigkill_crash_is_absorbed(self, tmp_path, monkeypatch):
        spec = _spec([
            {"row": "figure1", "sizes": [8, 12, 16], "seeds": [0, 1]},
            {"row": "lb-path", "sizes": [8, 12], "seeds": [1, 2]},
        ])
        serial = _store(tmp_path / "serial")
        run_campaign(spec, serial, progress=None)
        marker = str(tmp_path / "crash.marker")
        monkeypatch.setenv(CRASH_ENV, marker)
        fabric = _store(tmp_path / "fabric")
        report = _fabric(spec, fabric, workers=2)
        assert os.path.exists(marker)  # exactly one worker took the hit
        assert report.workers_died >= 1 and report.retries >= 1
        assert report.all_ok and report.ok == 10
        assert _points_blob(aggregate_campaign(spec, serial, extended=True)) \
            == _points_blob(aggregate_campaign(spec, fabric, extended=True))

    def test_wedged_worker_is_replaced(self, tmp_path, monkeypatch):
        """A SIGSTOPped worker stops heartbeating, is declared hung,
        killed, and its block retried elsewhere."""
        marker = str(tmp_path / "wedge.marker")
        real = workers_mod.execute_block_payload

        def wedge_once(payload):
            if any(job["row"] == "figure1" for job in payload["jobs"]):
                try:
                    fd = os.open(
                        marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                    )
                    os.close(fd)
                    os.kill(os.getpid(), signal.SIGSTOP)
                except FileExistsError:
                    pass
            return real(payload)

        monkeypatch.setattr(workers_mod, "execute_block_payload", wedge_once)
        # bounded, not path: path at n=8 is figure1's simulation and
        # would fuse into the wedged block.
        spec = _spec([
            {"row": "figure1", "sizes": [8], "seeds": [0]},
            {"row": "bounded", "sizes": [8], "seeds": [0]},
        ])
        store = _store(tmp_path)
        report = _fabric(spec, store, workers=2, heartbeat=0.1)
        assert report.all_ok and report.ok == 2
        assert report.workers_died >= 1
        reasons = [
            e["reason"] for e in read_events(
                os.path.join(str(tmp_path), "events.jsonl")
            ) if e["ev"] == "worker_died"
        ]
        assert any("heartbeat" in reason for reason in reasons)

    def test_timeout_cells_recorded_and_isolated(self, tmp_path, sleepy_row):
        spec = _spec([
            {"row": sleepy_row, "sizes": [4], "seeds": [0]},
            {"row": "path", "sizes": [8], "seeds": [0]},
        ])
        store = _store(tmp_path)
        report = _fabric(spec, store, workers=2, timeout=1, retries=0)
        assert report.timeouts == 1 and report.ok == 1
        assert not report.all_ok
        statuses = {r["status"] for r in store.load().values()}
        assert statuses == {"ok", "timeout"}

    def test_failed_seeds_retry_without_rerunning_ok(
        self, tmp_path, flaky_row
    ):
        spec = _spec([{"row": flaky_row, "sizes": [8], "seeds": [0, 1]}])
        store = _store(tmp_path)
        report = _fabric(spec, store, workers=1, retries=2)
        assert report.all_ok and report.ok == 2 and report.retries == 1
        # Seed 0 ran once, seed 1 twice (fail then retry): 3 records.
        assert store.line_count() == 3

    def test_poison_block_quarantined_sweep_continues(
        self, tmp_path, monkeypatch
    ):
        real = workers_mod.execute_block_payload

        def die_on_figure1(payload):
            if any(job["row"] == "figure1" for job in payload["jobs"]):
                os.kill(os.getpid(), signal.SIGKILL)
            return real(payload)

        monkeypatch.setattr(
            workers_mod, "execute_block_payload", die_on_figure1
        )
        spec = _spec([
            {"row": "figure1", "sizes": [8], "seeds": [0, 1]},
            {"row": "bounded", "sizes": [8], "seeds": [0]},
        ])
        store = _store(tmp_path)
        report = _fabric(spec, store, workers=2, retries=1)
        assert report.ok == 1  # the healthy block still completed
        assert report.quarantined == 2 and not report.all_ok
        assert report.workers_died >= 2  # initial try + retry
        quarantined = [
            r for r in store.load().values()
            if r["status"] == STATUS_QUARANTINED
        ]
        assert len(quarantined) == 2
        assert all("quarantined after 2" in r["error"] for r in quarantined)
        # Quarantined cells stay pending: the next run retries exactly them.
        _, pending = plan_pending(spec, store.completed_keys())
        assert sum(len(b.seeds) for b in pending) == 2
        monkeypatch.setattr(workers_mod, "execute_block_payload", real)
        healed = _fabric(spec, store, workers=2)
        assert healed.all_ok and healed.ok == 2 and healed.skipped == 1

    def test_adopts_leftover_shards_from_aborted_run(self, tmp_path):
        spec = _spec([{"row": "path", "sizes": [8, 12], "seeds": [0]}])
        store = _store(tmp_path)
        # Simulate a run that died after one worker wrote its shard but
        # before the parent merged it.
        shard_dir = shard_dir_for(store)
        os.makedirs(shard_dir)
        records = execute_job(
            {"job": {"row": "path", "size": 8, "seed": 0}, "timeout": None}
        )
        CampaignStore(shard_path(shard_dir, 0)).append_many(records)
        report = _fabric(spec, store, workers=1)
        assert report.skipped == 1 and report.ok == 1  # adopted, not rerun


def _results(store):
    """Each key's record apart from the run-dependent ``elapsed``/``ts``."""
    return {
        key: {k: v for k, v in record.items() if k not in ("elapsed", "ts")}
        for key, record in store.load().items()
    }


class TestPooledRunAll:
    """Several campaigns on one pool: shared cells simulated once, each
    store and ledger its own."""

    # Shared by key (decay at n=16) and by builder (path, lb-path and
    # figure1 at n=8); bounded stands alone.
    ALPHA = {"name": "alpha", "rows": [
        {"row": "decay", "sizes": [16], "seeds": [0, 1]},
        {"row": "path", "sizes": [8], "seeds": [0, 1]},
        {"row": "lb-path", "sizes": [8], "seeds": [0, 1, 2]},
    ]}
    BETA = {"name": "beta", "rows": [
        {"row": "figure1", "sizes": [8], "seeds": [1, 2]},
        {"row": "decay", "sizes": [16], "seeds": [0, 1]},
        {"row": "bounded", "sizes": [8], "seeds": [0, 1]},
    ]}

    def _specs(self):
        return [CampaignSpec.from_dict(d) for d in (self.ALPHA, self.BETA)]

    def _pooled(self, tmp_path, specs, **kwargs):
        kwargs.setdefault("backoff", 0.05)
        kwargs.setdefault("heartbeat", 0.2)
        return run_campaigns_fabric(
            [(spec, _store(tmp_path / spec.name), None) for spec in specs],
            **kwargs,
        )

    def test_matches_serial_oracle_and_simulates_once(
        self, tmp_path, monkeypatch
    ):
        import repro.campaign.registry as registry_mod

        specs = self._specs()
        serial = {}
        for spec in specs:
            serial[spec.name] = _store(tmp_path / "serial" / spec.name)
            run_campaign(spec, serial[spec.name], progress=None)
        spy_log = str(tmp_path / "simulated.log")
        real = registry_mod.execute_fused_block

        def spy(size, options, members):
            key = registry_mod.simulation_key(members[0][0], size, options)
            seeds = {seed for _, member in members for seed in member}
            with open(spy_log, "a", encoding="utf-8") as handle:
                for seed in sorted(seeds):
                    handle.write(f"{key[:2]} {id(key[2])} {key[4:]} {seed}\n")
            return real(size, options, members)

        monkeypatch.setattr(registry_mod, "execute_fused_block", spy)
        marker = str(tmp_path / "crash.marker")
        monkeypatch.setenv(CRASH_ENV, marker)
        reports = self._pooled(tmp_path, specs, workers=2)
        assert os.path.exists(marker)
        # Worker deaths are pool facts: every campaign's report names them.
        assert all(report.workers_died >= 1 for report in reports)
        assert [report.ok for report in reports] == [7, 6]
        assert all(report.all_ok for report in reports)
        for spec in specs:
            pooled = _store(tmp_path / spec.name)
            assert _results(pooled) == _results(serial[spec.name])
            assert _points_blob(
                aggregate_campaign(spec, pooled, extended=True)
            ) == _points_blob(
                aggregate_campaign(spec, serial[spec.name], extended=True)
            )
        # The injected crash kills its worker before the block runs, so
        # even the retried block is simulated once: decay at n=16 for
        # seeds 0-1, the path simulation at n=8 for 0-2, bounded for 0-1.
        with open(spy_log, encoding="utf-8") as handle:
            simulated = handle.read().splitlines()
        assert len(simulated) == len(set(simulated)) == 7
        # Each campaign's ledger shows only its own cells.
        for spec, cells in (("alpha", 7), ("beta", 6)):
            events = list(read_events(
                os.path.join(str(tmp_path), spec, "events.jsonl")
            ))
            done = [e for e in events if e["ev"] == "block_completed"]
            assert sum(e["ok"] for e in done) == cells
            assert [e["campaign"] for e in events
                    if e["ev"] == "run_started"] == [spec]

    def test_rerun_and_lost_store_compute_only_the_delta(self, tmp_path):
        import shutil

        specs = self._specs()
        first = self._pooled(tmp_path, specs, workers=2)
        assert [report.ok for report in first] == [7, 6]
        again = self._pooled(tmp_path, specs, workers=2)
        assert [report.ran for report in again] == [0, 0]
        shutil.rmtree(tmp_path / "beta")
        healed = self._pooled(tmp_path, specs, workers=2)
        assert [report.ran for report in healed] == [0, 6]
        assert [report.skipped for report in healed] == [7, 0]

    def test_poison_row_quarantined_other_campaign_completes(
        self, tmp_path, monkeypatch
    ):
        real = workers_mod.execute_block_payload

        def die_on_bounded(payload):
            if any(job["row"] == "bounded" for job in payload["jobs"]):
                os.kill(os.getpid(), signal.SIGKILL)
            return real(payload)

        monkeypatch.setattr(
            workers_mod, "execute_block_payload", die_on_bounded
        )
        alpha, beta = self._pooled(tmp_path, self._specs(), workers=2, retries=1)
        assert alpha.all_ok and alpha.ok == 7
        assert beta.quarantined == 2 and beta.ok == 4 and not beta.all_ok
        assert {
            r["job"]["row"] for r in _store(tmp_path / "beta").load().values()
            if r["status"] == STATUS_QUARANTINED
        } == {"bounded"}

    def test_worker_dying_mid_message_tears_only_its_own_pipe(
        self, tmp_path, monkeypatch
    ):
        import pickle
        import struct

        real_main = workers_mod.fabric_worker_main
        real_execute = workers_mod.execute_block_payload
        pipe = {}

        def keep_pipe(worker_id, task_queue, result_conn, heartbeat):
            pipe["conn"] = result_conn
            return real_main(worker_id, task_queue, result_conn, heartbeat)

        def tear_on_bounded(payload):
            if any(job["row"] == "bounded" for job in payload["jobs"]):
                # Half a frame (length header, then part of the pickle),
                # then death: the parent must not read the next worker's
                # bytes as the rest of this message.
                frame = pickle.dumps(("done", -1, -1, [[(0, "ok")] * 500]))
                os.write(
                    pipe["conn"].fileno(),
                    struct.pack("!i", len(frame)) + frame[: len(frame) // 2],
                )
                os.kill(os.getpid(), signal.SIGKILL)
            return real_execute(payload)

        monkeypatch.setattr(workers_mod, "fabric_worker_main", keep_pipe)
        monkeypatch.setattr(
            workers_mod, "execute_block_payload", tear_on_bounded
        )
        alpha, beta = self._pooled(tmp_path, self._specs(), workers=2, retries=1)
        assert alpha.all_ok and alpha.ok == 7
        assert beta.quarantined == 2 and beta.ok == 4
        assert beta.workers_died == 2

    def test_campaigns_sharing_a_store_refused(self, tmp_path):
        spec = _spec([{"row": "path", "sizes": [8], "seeds": [0]}])
        store = _store(tmp_path)
        with pytest.raises(ValueError, match="share the store directory"):
            run_campaigns_fabric([(spec, store, None), (spec, store, None)])


class TestEventsLedger:
    def test_ledger_counts_and_summary(self, tmp_path):
        spec = _spec([{"row": "path", "sizes": [8, 12], "seeds": [0, 1]}])
        store = _store(tmp_path)
        events_path = os.path.join(str(tmp_path), "events.jsonl")
        _fabric(spec, store, workers=2, events_path=events_path)
        summary = summarize_events(read_events(events_path))
        assert summary["counts"]["run_started"] == 1
        assert summary["counts"]["run_completed"] == 1
        assert summary["counts"]["block_completed"] == 2
        run = summary["last_run"]
        assert run["completed"] and run["cells_ok"] == 4
        text = render_events_summary(summary)
        assert "last run (fabtest): completed" in text
        assert "cells/s" in text

    def test_soa_engagement_summary_and_rendering(self, tmp_path):
        from repro.sim.resolution import numpy_available

        if not numpy_available():
            pytest.skip("the SoA lossy path needs numpy")
        spec = _spec([{
            "row": "bounded", "sizes": [8], "seeds": [0, 1],
            "options": {
                "loss_rate": 0.3, "lockstep": True, "resolution": "numpy",
            },
        }])
        store = _store(tmp_path)
        events_path = os.path.join(str(tmp_path), "events.jsonl")
        _fabric(spec, store, workers=2, events_path=events_path)
        summary = summarize_events(read_events(events_path))
        run = summary["last_run"]
        assert run["soa_seen"] is True
        assert run["soa_cells"] == 2
        assert run["soa_blocks"] == run["blocks"] > 0
        text = render_events_summary(summary)
        assert "SoA engagement" in text
        assert "2 cell(s) on the trial-SoA engine" in text

    def test_pre_soa_ledger_renders_without_engagement_line(self):
        # Ledgers written before the soa field existed (or by runs that
        # never engaged lock-step) must summarize and render unchanged.
        summary = summarize_events([
            {"ev": "run_started", "campaign": "x", "pending": 1},
            {"ev": "block_completed", "worker": 0, "ok": 1, "failed": 0},
            {"ev": "run_completed", "elapsed": 1.0},
        ])
        run = summary["last_run"]
        assert run["soa_seen"] is False and run["blocks"] == 1
        assert "SoA engagement" not in render_events_summary(summary)

    def test_no_ledger_renders_placeholder(self):
        assert "no events recorded" in render_events_summary(
            summarize_events([])
        )

    def test_torn_event_lines_skipped(self, tmp_path):
        path = os.path.join(str(tmp_path), "events.jsonl")
        with EventLog(path) as log:
            log.emit("run_started", campaign="x", pending=1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ev": "block_comp')
        events = list(read_events(path))
        assert [e["ev"] for e in events] == ["run_started"]

    def test_none_path_is_noop(self):
        log = EventLog(None)
        log.emit("run_started")  # must not raise or create anything
        log.close()


class TestLiveStatus:
    def test_live_view_after_finished_run(self, tmp_path):
        spec = _spec([{"row": "path", "sizes": [8], "seeds": [0, 1]}])
        store = _store(tmp_path)
        events_path = os.path.join(str(tmp_path), "events.jsonl")
        _fabric(spec, store, workers=1, events_path=events_path)
        text = render_live_status(spec, store, events_path)
        assert "fabric finished: 2/2 cells this run" in text
        assert "2/2 cells complete" in text  # store accounting line

    def test_live_view_mid_run_shows_workers_and_eta(self, tmp_path):
        spec = _spec([{"row": "path", "sizes": [8], "seeds": [0, 1, 2]}])
        store = _store(tmp_path)
        events_path = os.path.join(str(tmp_path), "events.jsonl")
        now = time.time()
        with EventLog(events_path) as log:
            log.emit("run_started", campaign="fabtest", total=3, cached=0,
                     pending=3, workers=2)
            log.emit("worker_born", worker=0, pid=1)
            log.emit("worker_born", worker=1, pid=2)
            log.emit("block_dispatched", block=0, worker=0, row="path",
                     size=8, seeds=2, attempt=0)
            log.emit("block_completed", block=0, worker=0, ok=2, failed=0,
                     elapsed=0.1)
            log.emit("block_dispatched", block=1, worker=1, row="path",
                     size=8, seeds=1, attempt=0)
        text = render_live_status(spec, store, events_path, now=now + 4.0)
        assert "fabric running: 2/3 cells" in text
        assert "ETA" in text
        assert "w0 IDLE" in text and "w1 RUN path/n=8" in text

    def test_no_ledger_renders_single_line(self, tmp_path):
        spec = _spec([{"row": "path", "sizes": [8], "seeds": [0]}])
        store = _store(tmp_path)
        text = render_live_status(
            spec, store, os.path.join(str(tmp_path), "missing.jsonl")
        )
        assert "no fabric events ledger" in text

    def test_watch_exits_when_run_complete(self, tmp_path):
        spec = _spec([{"row": "path", "sizes": [8], "seeds": [0]}])
        store = _store(tmp_path)
        events_path = os.path.join(str(tmp_path), "events.jsonl")
        _fabric(spec, store, workers=1, events_path=events_path)
        renders = []
        watch_campaign(
            spec, store, events_path, interval=0.01, out=renders.append
        )
        assert len(renders) == 1  # finished run: one render, no loop

    def test_progress_replay_tracks_dead_workers(self, tmp_path):
        events_path = os.path.join(str(tmp_path), "events.jsonl")
        with EventLog(events_path) as log:
            log.emit("run_started", campaign="x", pending=2, workers=2)
            log.emit("worker_born", worker=0, pid=1)
            log.emit("block_dispatched", block=0, worker=0, row="r", size=4,
                     seeds=1, attempt=0)
            log.emit("worker_died", worker=0, reason="no heartbeat", block=0)
            log.emit("block_retried", block=0, attempt=1, reason="x",
                     backoff=0.1)
        progress = live_progress(events_path)
        assert progress["workers"][0]["state"] == "dead"
        assert progress["retries"] == 1


class TestRunAll:
    def _write(self, path, data):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)

    def test_directory_with_manifest(self, tmp_path):
        self._write(tmp_path / "a.json", {"name": "a", "rows": []})
        self._write(tmp_path / "b.json", {"name": "b", "rows": []})
        self._write(
            tmp_path / "run_all.json",
            {"name": "everything", "configs": ["b.json", "a.json"]},
        )
        name, configs = resolve_run_all(str(tmp_path))
        assert name == "everything"
        assert [os.path.basename(c) for c in configs] == ["b.json", "a.json"]

    def test_directory_without_manifest_sorts_configs(self, tmp_path):
        self._write(tmp_path / "b.json", {})
        self._write(tmp_path / "a.json", {})
        _, configs = resolve_run_all(str(tmp_path))
        assert [os.path.basename(c) for c in configs] == ["a.json", "b.json"]

    def test_single_config_is_one_entry_run(self, tmp_path):
        path = tmp_path / "solo.json"
        self._write(path, {"name": "solo", "rows": []})
        name, configs = resolve_run_all(str(path))
        assert name == "solo" and configs == [str(path)]

    def test_missing_target_and_configs_raise(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            resolve_run_all(str(tmp_path / "nope.json"))
        self._write(
            tmp_path / "run_all.json", {"configs": ["ghost.json"]}
        )
        with pytest.raises(ValueError, match="missing config"):
            resolve_run_all(str(tmp_path))

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no campaign configs"):
            resolve_run_all(str(tmp_path))

    def test_duplicate_campaign_names_rejected(self, tmp_path, capsys):
        rows = [{"row": "path", "sizes": [8], "seeds": [0]}]
        self._write(tmp_path / "a.json", {"name": "same", "rows": rows})
        self._write(tmp_path / "b.json", {"name": "same", "rows": rows})
        out_root = tmp_path / "out"
        assert main([
            "campaign", "run-all", str(tmp_path), "--out-root", str(out_root),
        ]) == 2
        message = capsys.readouterr().out
        assert str(tmp_path / "a.json") in message
        assert str(tmp_path / "b.json") in message
        assert not out_root.exists()  # refused before any cell ran

    def test_shipped_manifest_resolves(self):
        name, configs = resolve_run_all("configs")
        assert name == "run-all"
        assert [os.path.basename(c) for c in configs] == [
            "figure1.json", "table1.json", "ablations.json", "faults.json",
        ]


class TestFabricCLI:
    def _config(self, tmp_path, rows=None):
        path = tmp_path / "campaign.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "name": "clifab",
                "rows": rows or [{"row": "path", "sizes": [8], "seeds": [0, 1]}],
            }, handle)
        return str(path)

    def test_run_workers_flag_uses_fabric(self, tmp_path, capsys):
        config = self._config(tmp_path)
        out = str(tmp_path / "out")
        assert main([
            "campaign", "run", config, "--out", out, "--workers", "2",
        ]) == 0
        stdout = capsys.readouterr().out
        assert "worker(s)" in stdout and "quarantined" in stdout
        assert os.path.exists(os.path.join(out, "events.jsonl"))

    def test_status_watch_and_report_events(self, tmp_path, capsys):
        config = self._config(tmp_path)
        out = str(tmp_path / "out")
        main(["campaign", "run", config, "--out", out, "--workers", "2"])
        capsys.readouterr()
        assert main([
            "campaign", "status", config, "--out", out, "--watch",
        ]) == 0
        assert "fabric finished" in capsys.readouterr().out
        assert main([
            "campaign", "report", config, "--out", out, "--events",
        ]) == 0
        assert "fabric events:" in capsys.readouterr().out

    def test_run_all_cli(self, tmp_path, capsys):
        self._config(tmp_path)
        os.rename(tmp_path / "campaign.json", tmp_path / "one.json")
        out_root = str(tmp_path / "campaigns")
        assert main([
            "campaign", "run-all", str(tmp_path / "one.json"),
            "--out-root", out_root, "--workers", "2",
        ]) == 0
        stdout = capsys.readouterr().out
        assert "run-all" in stdout and "all ok" in stdout
        assert os.path.exists(
            os.path.join(out_root, "clifab", "results.jsonl")
        )

    def test_store_compact_cli(self, tmp_path, capsys):
        store = _store(tmp_path)
        store.append(make_record("a", {}, "error", error="x"))
        store.append(make_record("a", {}, "ok", result={}))
        assert main(["store", "compact", str(tmp_path)]) == 0
        assert "2 -> 1" in capsys.readouterr().out

    def test_store_merge_cli_prefers_ok(self, tmp_path, capsys):
        dest = _store(tmp_path / "dest")
        dest.append(make_record("a", {}, "error", error="x"))
        src = _store(tmp_path / "src")
        src.append(make_record("a", {}, "ok", result={}))
        src.append(make_record("b", {}, "error", error="y"))
        assert main([
            "store", "merge", str(tmp_path / "dest"), str(tmp_path / "src"),
        ]) == 0
        assert "2 cell(s)" in capsys.readouterr().out
        merged = dest.load()
        assert merged["a"]["status"] == "ok"
        assert merged["b"]["status"] == "error"

    def test_store_compact_missing_store(self, tmp_path, capsys):
        assert main(["store", "compact", str(tmp_path / "ghost.jsonl")]) == 2
        assert "not found" in capsys.readouterr().out


class TestRunnerConfigSurface:
    def test_runner_fields_validate(self):
        ExecutionConfig(workers=4, retries=0, heartbeat=0.0)  # all legal
        with pytest.raises(ExecutionConfigError, match="workers"):
            ExecutionConfig(workers=0)
        with pytest.raises(ExecutionConfigError, match="retries"):
            ExecutionConfig(retries=-1)
        with pytest.raises(ExecutionConfigError, match="heartbeat"):
            ExecutionConfig(heartbeat=-0.5)
        with pytest.raises(ExecutionConfigError, match="heartbeat"):
            ExecutionConfig(heartbeat=True)

    def test_runner_fields_are_not_cell_options(self):
        from repro.sim.config import validate_execution_options

        with pytest.raises(ExecutionConfigError, match="workers"):
            validate_execution_options({"workers": 2})
        with pytest.raises(ExecutionConfigError, match="heartbeat"):
            validate_execution_options({"heartbeat": 0.1})

    def test_engine_rejects_runner_fields(self):
        from repro.graphs import path_graph
        from repro.sim import Knowledge

        config = ExecutionConfig(workers=2)
        with pytest.raises(ExecutionConfigError, match="campaign fabric"):
            Simulator(
                path_graph(4), LOCAL,
                knowledge=Knowledge(n=4, max_degree=2, diameter=3),
                exec_config=config,
            )

    def test_fabric_rejects_zero_workers(self, tmp_path):
        spec = _spec([{"row": "path", "sizes": [8], "seeds": [0]}])
        with pytest.raises(ValueError, match="workers"):
            run_campaign_fabric(spec, _store(tmp_path), workers=0)

    def test_cli_flags_route_to_fabric_defaults(self):
        from repro.sim.config import runner_overrides

        parser_args = type("A", (), {
            "workers": 3, "retries": None, "heartbeat": 0.5,
        })()
        assert runner_overrides(parser_args) == {
            "workers": 3, "heartbeat": 0.5,
        }


class TestSizesScaleClamp:
    def test_family_minimums_cover_all_families(self):
        assert set(GRAPH_FAMILY_MIN_SIZES) == set(GRAPH_FAMILIES)
        assert GRAPH_FAMILY_MIN_SIZES["cycle"] == 3

    def test_row_min_size_for_cycle_rows(self):
        for row in ("dtime", "det-local", "det-cd"):
            assert row_min_size(row) == 3
        assert row_min_size("path") == 2

    def test_scale_clamps_to_family_minimum(self):
        # dtime runs on cycles: a min-2 clamp would have crashed it.
        assert scaled_sizes("dtime", 0.01) == (3,)
        assert scaled_sizes("bounded", 0.01) == (2,)
        # Rounded, then deduplicated in order after the clamp.
        assert scaled_sizes("lb-reduction", 0.5) == (2, 4, 8)
        assert scaled_sizes("path", 1.5) == (96, 384, 1536)

    def test_cycle_family_rejects_n2(self):
        from repro.graphs import cycle_graph

        with pytest.raises(ValueError):
            cycle_graph(2)
        cycle_graph(3)  # the clamped minimum really is buildable
