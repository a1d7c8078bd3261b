"""Fault-injection and differential tests for the campaign fabric.

The contract under test: whatever the fabric is subjected to — SIGKILL
mid-block, a wedged (SIGSTOPped) worker, cells that raise, cells that
sleep past their budget, a SIGKILLed parent — the store ends up with
aggregates byte-identical to the serial oracle's, and a resume computes
only the true delta.  The parent is every store's one writer: a block
its ledger reports as completed is already in the store, and its
workers die with it.  Plus the subsystems the fabric rides on:
crash-safe store appends, the events ledger, live status, run-all
resolution, and the CLI/config surface.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.campaign.fabric.workers as workers_mod
from repro.campaign import (
    ROW_REGISTRY,
    CampaignSpec,
    CampaignStore,
    RowDefinition,
    aggregate_campaign,
    register_row,
    render_status,
    run_campaign,
    run_campaign_fabric,
    run_campaigns_fabric,
)
from repro.campaign.fabric import (
    CRASH_ENV,
    EventLog,
    read_events,
    render_events_summary,
    render_live_status,
    resolve_run_all,
    summarize_events,
    watch_campaign,
)
from repro.campaign.registry import (
    GRAPH_FAMILIES,
    GRAPH_FAMILY_MIN_SIZES,
    row_min_size,
    scaled_sizes,
)
from repro.campaign.runner import RunnerOptions, plan_pending
from repro.campaign.store import STATUS_QUARANTINED, make_record
from repro.cli import build_parser, main
from repro.sim import ExecutionConfig
from repro.sim.config import ExecutionConfigError


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
        from repro.campaign.registry import execute_cell_block

        if seed == 1:
            attempts = (
                os.path.getsize(marker) if os.path.exists(marker) else 0
            )
            if attempts < 2:
                with open(marker, "ab") as handle:
                    handle.write(b"x")
                raise ValueError("flaky boom")
        return execute_cell_block("path", size, (seed,), options)[0]

    name = "_test-flaky"
    register_row(RowDefinition(
        name=name, title="flaky", model="LOCAL", graph_family="path",
        builder=lambda g, o: None, default_sizes=(8,), default_seeds=(0, 1),
        custom_cell=cell,
    ))
    yield name
    ROW_REGISTRY.pop(name, None)


@pytest.fixture
def failing_row():
    """Raises on every attempt, so the fabric retries it to exhaustion."""

    def cell(row, size, seed, options):
        raise ValueError("always fails")

    name = "_test-failing"
    register_row(RowDefinition(
        name=name, title="failing", model="LOCAL", graph_family="path",
        builder=lambda g, o: None, default_sizes=(8,), default_seeds=(0,),
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
            == _points_blob(aggregate_campaign(spec, fabric, extended=True))

    def test_lossy_row_matches_serial_oracle(self, tmp_path):
        """A lossy many-seed row through ``--workers 2`` stores the same
        results as the serial runner."""
        spec = _spec([{
            "row": "bounded", "sizes": [8, 12], "seeds": [0, 1],
            "options": {"loss_rate": 0.3},
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


class TestProtocolPreload:
    """The row builders import their protocols on first call; the run
    paths import them before they plan, so forked workers inherit them."""

    # Rows that share one builder object.  lb-reduction-cd runs on the
    # K_{2,k} family, so it fuses only with blocks on that family.
    SHARED_BUILDERS = [
        ("path", "lb-path", "figure1"),
        ("cd", "abl-ps-thm12"),
        ("abl-probe", "abl-ps-thm11", "lb-reduction-cd"),
    ]

    @pytest.mark.parametrize("rows", SHARED_BUILDERS)
    def test_shared_builder_rows_share_one_simulation_key(self, rows):
        from repro.campaign.registry import get_row, simulation_key

        assert len({id(get_row(row).builder) for row in rows}) == 1
        keys = [simulation_key(row, 8, {}) for row in rows]
        families = {get_row(row).graph_family for row in rows}
        # The key is (model, family, builder, id-space rule, size,
        # options): equal but for the family, one per family.
        assert len({key[:1] + key[2:] for key in keys}) == 1
        assert len(set(keys)) == len(families)

    def test_forked_workers_inherit_the_protocol_layer(self, tmp_path):
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        store = str(tmp_path / "results.jsonl")
        script = "\n".join([
            "import sys",
            "import repro.campaign.fabric.runner as fabric_runner",
            "from repro.campaign import CampaignSpec, CampaignStore",
            "PROTOCOLS = ('repro.broadcast.path', 'repro.lowerbounds.path_lb')",
            "def loaded():",
            "    return all(m in sys.modules for m in PROTOCOLS)",
            "assert not any(m in sys.modules for m in PROTOCOLS)",
            "seen = {}",
            "real_plan = fabric_runner.plan_pending",
            "def plan_pending(*args):",
            "    seen.setdefault('plan', loaded())",
            "    return real_plan(*args)",
            "class WorkerHandle(fabric_runner.WorkerHandle):",
            "    def __init__(self, *args, **kwargs):",
            "        seen.setdefault('fork', loaded())",
            "        super().__init__(*args, **kwargs)",
            "fabric_runner.plan_pending = plan_pending",
            "fabric_runner.WorkerHandle = WorkerHandle",
            "spec = CampaignSpec.from_dict({'name': 'fork', 'rows': [",
            "    {'row': 'lb-path', 'sizes': [4, 6], 'seeds': [0]}]})",
            "report = fabric_runner.run_campaign_fabric(",
            f"    spec, CampaignStore({store!r}), workers=2)",
            "assert report.all_ok and report.ok == 2, report.summary()",
            "assert seen == {'plan': True, 'fork': True}, seen",
        ])
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert result.returncode == 0, result.stderr


def _running(pid):
    """Whether ``pid`` is a live process; a zombie counts as exited,
    since nothing may reap an orphan here."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)
class TestKilledParent:
    """A SIGKILLed ``campaign run --workers 2`` parent."""

    ROWS = [{
        "row": "path", "sizes": [256, 384, 512, 640, 768, 896, 1024],
        "seeds": [0],
    }]

    def test_store_is_consistent_resumable_and_workers_exit(self, tmp_path):
        import repro

        config = tmp_path / "killed.json"
        config.write_text(json.dumps({"name": "killed", "rows": self.ROWS}))
        out = tmp_path / "out"
        events_path = str(out / "events.jsonl")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        parent = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run", str(config),
             "--workers", "2", "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not any(
                e["ev"] == "block_completed" for e in read_events(events_path)
            ):
                assert parent.poll() is None, "the run ended first"
                assert time.monotonic() < deadline, "no block completed"
                time.sleep(0.02)
        finally:
            parent.kill()
            parent.wait(timeout=10)
        events = list(read_events(events_path))
        # The workers die with their parent (survivors are killed here
        # before the assert, so a failure leaves no orphans behind).
        pids = [e["pid"] for e in events if e["ev"] == "worker_born"]
        assert len(pids) == 2
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []
        # Every block the ledger reports as completed is in the store.
        store = CampaignStore(str(out / "results.jsonl"))
        completed = sum(
            e["ok"] for e in events if e["ev"] == "block_completed"
        )
        assert len(store.ok_records()) >= completed
        assert not (out / "shards").exists()
        # A resume computes only the missing cells, to the serial
        # oracle's aggregates.
        spec = CampaignSpec.from_json_file(str(config))
        done = len(store.completed_keys())
        assert done < 7
        resumed = _fabric(spec, store, workers=2)
        assert resumed.all_ok
        assert (resumed.skipped, resumed.ran) == (done, 7 - done)
        serial = _store(tmp_path / "serial")
        run_campaign(spec, serial, progress=None)
        assert _points_blob(aggregate_campaign(spec, store, extended=True)) \
            == _points_blob(aggregate_campaign(spec, serial, extended=True))


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
        """Campaign cells never run lock-step, so a fabric run's ledger
        carries no SoA fields and its summary prints no SoA lines (it
        used to print "SoA engagement: 0/N block(s)" for every run)."""
        spec = _spec([{
            "row": "bounded", "sizes": [8], "seeds": [0, 1],
            "options": {"loss_rate": 0.3},
        }])
        store = _store(tmp_path)
        events_path = os.path.join(str(tmp_path), "events.jsonl")
        _fabric(spec, store, workers=2, events_path=events_path)
        done = [
            e for e in read_events(events_path)
            if e["ev"] == "block_completed"
        ]
        assert done and not any(
            key.startswith("soa") for e in done for key in e
        )
        summary = summarize_events(read_events(events_path))
        assert summary["last_run"]["cells_ok"] == 2
        assert "SoA" not in render_events_summary(summary)

    def test_pre_soa_ledger_renders_without_engagement_line(self):
        # Ledgers written before the soa field existed must summarize
        # and render like any other.
        summary = summarize_events([
            {"ev": "run_started", "campaign": "x", "pending": 1},
            {"ev": "block_completed", "worker": 0, "ok": 1, "failed": 0},
            {"ev": "run_completed", "elapsed": 1.0},
        ])
        run = summary["last_run"]
        assert run["completed"] and run["cells_ok"] == 1
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
        summary = summarize_events(read_events(events_path))
        assert summary["workers"][0]["state"] == "dead"
        assert summary["workers"][0]["died"] == "no heartbeat"
        assert len(summary["retried"]) == 1


def _ev(name, ts, **fields):
    return dict(ev=name, ts=ts, **fields)


def _sent(ts, block, worker, attempt=0, row="path"):
    return _ev("block_dispatched", ts, block=block, worker=worker, row=row,
               size=8, seeds=2, attempt=attempt)


def _done(ts, block, worker, ok, failed, soa=None, reasons=None):
    """A ``block_completed`` event; ``soa``/``reasons`` write the
    fields older ledgers carried, from when campaigns could run
    lock-step."""
    fields = dict(block=block, worker=worker, ok=ok, failed=failed,
                  elapsed=0.5)
    if soa is not None:
        fields.update(soa=soa, soa_reasons=reasons or {})
    return _ev("block_completed", ts, **fields)


def _started(workers=2, cached=0):
    return _ev("run_started", 100.0, campaign="fold", total=4,
               cached=cached, pending=4 - cached, workers=workers)


def _finished(elapsed, **counts):
    return _ev("run_completed", 100.0 + elapsed, elapsed=elapsed, **counts)


def _born(ts, *wids):
    return [_ev("worker_born", ts, worker=wid, pid=10 + wid) for wid in wids]


def _died(ts, wid, block):
    return _ev("worker_died", ts, worker=wid, reason="worker process died",
               block=block)


#: One synthetic ledger per case: (events, the --events summary, the
#: fabric lines of the --watch view rendered at ts 102.0).  The texts
#: are a compatibility pin: only the retried failure's may differ from
#: what these views printed when each read the ledger on its own.
_FOLD_CASES = {
    "clean": (
        [_started(), *_born(100.1, 0, 1), _sent(100.2, 0, 0),
         _sent(100.2, 1, 1), _done(101.0, 0, 0, 2, 0),
         _done(101.5, 1, 1, 2, 0), _finished(1.5)],
        """fabric events:
  last run (fold): completed; 4 ok / 0 failed of 4 pending (0 cached of 4 total), 2 worker(s)
  wall 1.5s, 2.7 cells/s
  events: run_started=1, worker_born=2, block_dispatched=2, block_completed=2, run_completed=1
  worker 0: 1 block(s), 2 cell(s)
  worker 1: 1 block(s), 2 cell(s)""",
        """fabric finished: 4/4 cells this run (0 failed, 0 quarantined, 0 retries) | 2.7 cells/s
workers: w0 IDLE  w1 IDLE""",
    ),
    "worker_death": (
        [_started(), *_born(100.1, 0, 1), _sent(100.2, 0, 0),
         _sent(100.2, 1, 1), _died(100.8, 1, 1),
         _ev("block_retried", 100.8, block=1, attempt=1,
             reason="worker process died", backoff=0.5),
         *_born(100.9, 2), _done(101.0, 0, 0, 2, 0),
         _sent(101.3, 1, 2, attempt=1)],
        """fabric events:
  last run (fold): IN PROGRESS / ABORTED; 2 ok / 0 failed of 4 pending (0 cached of 4 total), 2 worker(s)
  events: run_started=1, worker_born=3, worker_died=1, block_dispatched=3, block_completed=1, block_retried=1
  worker 0: 1 block(s), 2 cell(s)
  worker 1: 0 block(s), 0 cell(s)  DIED: worker process died
  worker 2: 0 block(s), 0 cell(s)
  retry  block 1 attempt 1: worker process died""",
        """fabric running: 2/4 cells this run (0 failed, 0 quarantined, 1 retries) | 1.0 cells/s | ETA 2s
workers: w0 IDLE  w1 DEAD (worker process died)  w2 RUN path/n=8 (block 1, 0.7s)""",
    ),
    # Block 0's one cell fails on all three attempts: it counts once
    # in the run's cells and rate, while worker tallies count attempts.
    "retried_failure": (
        [_started(workers=1), _sent(100.1, 0, 0, row="_poison"),
         _done(100.2, 0, 0, 0, 1),
         _ev("block_retried", 100.2, block=0, attempt=1,
             reason="1 cell(s) failed (error)", backoff=0.5),
         _sent(100.3, 1, 0), _done(100.9, 1, 0, 3, 0),
         _sent(101.0, 0, 0, attempt=1, row="_poison"),
         _done(101.1, 0, 0, 0, 1),
         _ev("block_retried", 101.1, block=0, attempt=2,
             reason="1 cell(s) failed (error)", backoff=1.0),
         _sent(102.1, 0, 0, attempt=2, row="_poison"),
         _done(102.2, 0, 0, 0, 1), _finished(2.0)],
        """fabric events:
  last run (fold): completed; 3 ok / 1 failed of 4 pending (0 cached of 4 total), 1 worker(s)
  wall 2.0s, 2.0 cells/s
  events: run_started=1, block_dispatched=4, block_completed=4, block_retried=2, run_completed=1
  worker 0: 4 block(s), 6 cell(s)
  retry  block 0 attempt 1: 1 cell(s) failed (error)
  retry  block 0 attempt 2: 1 cell(s) failed (error)""",
        """fabric finished: 3/4 cells this run (1 failed, 0 quarantined, 2 retries) | 2.0 cells/s
workers: w0 IDLE""",
    ),
    "quarantine": (
        [_started(), *_born(100.1, 0, 1), _sent(100.2, 0, 0, row="figure1"),
         _sent(100.2, 1, 1), _died(100.5, 0, 0),
         _ev("block_retried", 100.5, block=0, attempt=1,
             reason="worker process died", backoff=0.5),
         *_born(100.6, 2), _done(100.9, 1, 1, 2, 0),
         _sent(101.0, 0, 2, attempt=1, row="figure1"), _died(101.2, 2, 0),
         _ev("block_quarantined", 101.2, block=0,
             reason="worker process died", cells=2),
         _finished(1.2)],
        """fabric events:
  last run (fold): completed; 2 ok / 0 failed of 4 pending (0 cached of 4 total), 2 worker(s)
  wall 1.2s, 1.7 cells/s
  events: run_started=1, worker_born=3, worker_died=2, block_dispatched=3, block_completed=1, block_retried=1, block_quarantined=1, run_completed=1
  worker 0: 0 block(s), 0 cell(s)  DIED: worker process died
  worker 1: 1 block(s), 2 cell(s)
  worker 2: 0 block(s), 0 cell(s)  DIED: worker process died
  retry  block 0 attempt 1: worker process died
  QUARANTINED block 0 (2 cell(s)): worker process died""",
        """fabric finished: 2/4 cells this run (0 failed, 2 quarantined, 1 retries) | 1.7 cells/s
workers: w0 DEAD (worker process died)  w1 IDLE  w2 DEAD (worker process died)""",
    ),
    # An old ledger whose block_completed events carry the lock-step
    # fields soa and soa_reasons still reads and renders; the fold
    # ignores them.
    "soa_verdicts": (
        [_started(), *_born(100.1, 0, 1), _sent(100.2, 0, 0, row="bounded"),
         _sent(100.2, 1, 1), _done(101.0, 0, 0, 2, 0, 2, {"ok": 2}),
         _done(101.5, 1, 1, 2, 0, 0, {"observers": 1, "churn": 1}),
         _finished(1.5)],
        """fabric events:
  last run (fold): completed; 4 ok / 0 failed of 4 pending (0 cached of 4 total), 2 worker(s)
  wall 1.5s, 2.7 cells/s
  events: run_started=1, worker_born=2, block_dispatched=2, block_completed=2, run_completed=1
  worker 0: 1 block(s), 2 cell(s)
  worker 1: 1 block(s), 2 cell(s)""",
        """fabric finished: 4/4 cells this run (0 failed, 0 quarantined, 0 retries) | 2.7 cells/s
workers: w0 IDLE  w1 IDLE""",
    ),
    "pre_soa": (
        [_started(workers=1, cached=2), _sent(100.1, 0, 0),
         _done(100.7, 0, 0, 2, 0), _finished(0.7)],
        """fabric events:
  last run (fold): completed; 2 ok / 0 failed of 2 pending (2 cached of 4 total), 1 worker(s)
  wall 0.7s, 2.9 cells/s
  events: run_started=1, block_dispatched=1, block_completed=1, run_completed=1
  worker 0: 1 block(s), 2 cell(s)""",
        """fabric finished: 2/2 cells this run (0 failed, 0 quarantined, 0 retries) | 2.9 cells/s
workers: w0 IDLE""",
    ),
}


class TestOneFold:
    """``report --events`` and ``status --watch`` render one fold."""

    @pytest.mark.parametrize("case", sorted(_FOLD_CASES))
    def test_both_renderers_read_one_fold(self, tmp_path, case):
        events, summary_text, live_text = _FOLD_CASES[case]
        path = tmp_path / "events.jsonl"
        path.write_text("".join(
            json.dumps(event, sort_keys=True) + "\n" for event in events
        ))
        assert render_events_summary(
            summarize_events(read_events(str(path)))
        ) == summary_text
        spec = _spec([{"row": "path", "sizes": [8], "seeds": [0, 1, 2, 3]}])
        store = _store(tmp_path)
        live = render_live_status(spec, store, str(path), now=102.0)
        assert live == render_status(spec, store) + "\n" + live_text

    def test_retried_failure_counts_once_on_a_real_run(
        self, tmp_path, failing_row
    ):
        spec = _spec([
            {"row": failing_row, "sizes": [8], "seeds": [0]},
            {"row": "path", "sizes": [8], "seeds": [0, 1, 2]},
        ])
        store = _store(tmp_path)
        report = _fabric(spec, store, workers=1, retries=2)
        assert (report.ok, report.errors, report.retries) == (3, 1, 2)
        events_path = os.path.join(str(tmp_path), "events.jsonl")
        summary = summarize_events(read_events(events_path))
        assert summary["workers"][0]["cells"] == 6  # every attempt
        assert "3 ok / 1 failed of 4 pending" in render_events_summary(summary)
        assert "3/4 cells this run (1 failed, 0 quarantined, 2 retries)" in (
            render_live_status(spec, store, events_path)
        )


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

    @pytest.mark.parametrize("interval", ["nan", "inf", "0", "-1"])
    def test_watch_bad_interval_exits_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, interval
    ):
        # A ledger holding only run_started reads as a live run: the
        # watch would sleep on the interval (nan, inf and -1 raise in
        # time.sleep) or spin without a pause (0).
        config = self._config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        with EventLog(str(out / "events.jsonl")) as log:
            log.emit("run_started", campaign="clifab", total=2, cached=0,
                     pending=2, workers=2)

        def no_sleep(seconds):
            raise AssertionError(f"the watch loop slept {seconds!r}")

        monkeypatch.setattr(time, "sleep", no_sleep)
        assert main([
            "campaign", "status", config, "--out", str(out), "--watch",
            f"--interval={interval}",
        ]) == 2
        assert capsys.readouterr().out == (
            "--interval must be a finite number > 0\n"
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
        assert RunnerOptions() == RunnerOptions(
            workers=1, retries=2, heartbeat=1.0, timeout=None
        )
        RunnerOptions(workers=4, retries=0, heartbeat=0.0, timeout=0.5)
        RunnerOptions(heartbeat=3, timeout=2)  # ints are seconds too
        assert RunnerOptions.given(workers=None, retries=5) == RunnerOptions(
            retries=5
        )

    @pytest.mark.parametrize("name, value", [
        ("workers", 0), ("workers", -1), ("workers", 1.0), ("workers", True),
        ("workers", "2"), ("retries", -1), ("retries", 0.5),
        ("retries", False), ("heartbeat", -0.5), ("heartbeat", True),
        ("heartbeat", "1"), ("heartbeat", float("nan")),
        ("heartbeat", float("inf")), ("timeout", 0), ("timeout", -1.0),
        ("timeout", True), ("timeout", "5"), ("timeout", float("nan")),
        ("timeout", float("inf")),
    ])
    def test_runner_fields_refuse_bad_values(self, name, value):
        with pytest.raises(ExecutionConfigError, match=name):
            RunnerOptions(**{name: value})

    def test_runner_fields_are_not_cell_options(self):
        from repro.sim.config import validate_execution_options

        with pytest.raises(ExecutionConfigError, match="workers"):
            validate_execution_options({"workers": 2})
        with pytest.raises(ExecutionConfigError, match="heartbeat"):
            validate_execution_options({"heartbeat": 0.1})

    def test_execution_config_has_no_runner_fields(self):
        runner = {spec.name for spec in dataclasses.fields(RunnerOptions)}
        assert not runner & {
            spec.name for spec in ExecutionConfig.field_specs()
        }
        with pytest.raises(TypeError, match="workers"):
            ExecutionConfig(workers=2)

    def test_fabric_rejects_zero_workers(self, tmp_path):
        spec = _spec([{"row": "path", "sizes": [8], "seeds": [0]}])
        with pytest.raises(ValueError, match="workers"):
            run_campaign_fabric(spec, _store(tmp_path), workers=0)

    @pytest.mark.parametrize("name, value", [
        ("retries", -1), ("heartbeat", -1.0), ("heartbeat", float("nan")),
        ("heartbeat", float("inf")), ("timeout", 0), ("timeout", -1.0),
        ("timeout", True), ("timeout", float("inf")),
    ])
    def test_fabric_checks_runner_values_before_writing(
        self, tmp_path, name, value
    ):
        spec = _spec([{"row": "path", "sizes": [8, 12], "seeds": [0]}])
        store = _store(tmp_path / "out")
        with pytest.raises(ExecutionConfigError, match=name):
            run_campaigns_fabric([(spec, store, None)], **{name: value})
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [
        -1, 0, -0.5, float("nan"), float("inf"), True,
    ])
    def test_serial_runner_checks_timeout_before_writing(
        self, tmp_path, value
    ):
        # Library callers reach run_campaign without the CLI's check;
        # unchecked, the cell alarm would turn -1 into a 1 s budget and
        # 0 or NaN into none.
        spec = _spec([{"row": "path", "sizes": [8, 12], "seeds": [0]}])
        store = _store(tmp_path / "out")
        with pytest.raises(ExecutionConfigError, match="timeout"):
            run_campaign(spec, store, timeout=value)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [
        "--workers=0", "--retries=-1", "--heartbeat=-1", "--heartbeat=nan",
        "--timeout=0", "--timeout=-1", "--timeout=inf",
    ])
    @pytest.mark.parametrize("command", ["run", "run-all"])
    def test_cli_bad_runner_flag_exits_2_and_writes_nothing(
        self, tmp_path, capsys, command, flag
    ):
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({
            "name": "clibad",
            "rows": [{"row": "path", "sizes": [8, 12], "seeds": [0]}],
        }))
        out = tmp_path / "out"
        where = "--out" if command == "run" else "--out-root"
        assert main([
            "campaign", command, str(config), where, str(out), flag,
        ]) == 2
        message = capsys.readouterr().out
        assert message.count("\n") == 1
        assert message.startswith("bad runner flag: " + flag[2:].split("=")[0])
        assert not out.exists()

    def test_cli_flags_route_to_fabric_defaults(self):
        from repro.cli import _engages_fabric, _runner_options

        parser = build_parser()
        for command in (["campaign", "run", "c.json"],
                        ["campaign", "run-all", "configs"]):
            given = parser.parse_args(
                command + ["--workers", "3", "--heartbeat", "0.5"]
            )
            assert _runner_options(given) == RunnerOptions(
                workers=3, heartbeat=0.5
            )
            assert _engages_fabric(given)
            timeout_only = parser.parse_args(command + ["--timeout", "5"])
            assert _runner_options(timeout_only) == RunnerOptions(
                timeout=5.0
            )
            assert not _engages_fabric(timeout_only)
            bare = parser.parse_args(command)
            assert _runner_options(bare) == RunnerOptions()
            assert not _engages_fabric(bare)


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
