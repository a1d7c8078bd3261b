"""The adversity layer: fault injection must be deterministic, valid at
every door, and byte-identical across every execution engine.

The core is the differential matrix: every fault family (churn, jamming,
Gilbert-Elliott burst loss — and their composition) run across the five
paper models x {bitmask, numpy} x {phase, slot} x {serial,
lock-step}, pinned against the reference oracle carrying the *same*
fault realization (built by the shared ``FaultPlan.for_trial``).  On
top: spec-grammar and parameter validation, schedule determinism and
query-order independence (sharding cannot change a fault realization),
the GE chain's convergence to its stationary loss rate, the SoA
fallback taxonomy, the events-ledger rendering of unknown future
verdicts, the fabric's injected-crash harness under faults, and every
registry row under each fault family.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.broadcast.base import source_inputs
from repro.campaign import CampaignSpec
from repro.campaign.cells import knowledge_for
from repro.campaign.registry import ROW_REGISTRY, get_row
from repro.campaign.runner import execute_job
from repro.graphs import clique, cycle_graph, path_graph, random_gnp, star_graph
from repro.sim import (
    BEEPING,
    CD,
    CD_STAR,
    LOCAL,
    NO_CD,
    ExecutionConfig,
    ExecutionConfigError,
    Idle,
    Listen,
    ListenUntil,
    Repeat,
    Send,
    SendListen,
    Simulator,
    Steps,
    numpy_available,
    run_trials,
)
from repro.sim.faults import (
    JAM_FEEDBACK,
    CrashSchedule,
    GilbertElliottModel,
    JammedModel,
    PeriodicChurn,
    PeriodicJammer,
    RandomChurn,
    RandomJammer,
    ReactiveJammer,
    down_feedback,
    jam_feedback,
    parse_burst_loss_spec,
    parse_churn_spec,
    parse_fault_specs,
    parse_jam_spec,
    validate_fault_spec,
)
from repro.sim.feedback import BEEP, NOISE, SILENCE
from repro.sim.models import MODELS, LossyModel
from repro.sim.reference import ReferenceSimulator
from tests.conftest import (
    CountingModel,
    assert_same_run,
    bernoulli_steps,
    per_slot,
)

FIVE_MODELS = {
    "LOCAL": LOCAL,
    "CD": CD,
    "No-CD": NO_CD,
    "CD*": CD_STAR,
    "BEEP": BEEPING,
}

RESOLUTIONS = ("bitmask",) + (("numpy",) if numpy_available() else ())

FAULT_CONFIGS = {
    "churn-periodic": dict(churn="periodic:period=10,down=3,stagger=2"),
    "churn-random": dict(churn="random:p=0.4,period=12,down=5"),
    "jam-periodic": dict(jam="periodic:period=4,offset=1"),
    "jam-random": dict(jam="random:rate=0.3"),
    "jam-reactive": dict(jam="reactive:min=1"),
    "burst-loss": dict(burst_loss="p_gb=0.2,p_bg=0.4,good=0.05,bad=0.9"),
    "churn-burst": dict(
        churn="periodic:period=10,down=3,stagger=2",
        burst_loss="p_gb=0.2,p_bg=0.4,good=0.05,bad=0.9",
    ),
    "all-three": dict(
        churn="periodic:period=10,down=3,stagger=2",
        jam="random:rate=0.2",
        burst_loss="p_gb=0.2,p_bg=0.4",
    ),
}


def _random_protocol(steps: int):
    def protocol(ctx):
        heard = 0
        for step in range(steps):
            roll = ctx.rng.random()
            if roll < 0.35:
                yield Send(("m", ctx.index, step))
            elif roll < 0.75:
                feedback = yield Listen()
                if feedback not in (None, (), SILENCE, NOISE, BEEP):
                    heard += 1
            else:
                yield Idle(1 + ctx.rng.randrange(3))
        return (ctx.index, heard)

    return protocol


# --- spec grammar and parameter validation ---------------------------------


class TestSpecValidation:
    def test_churn_specs_parse(self):
        assert parse_churn_spec("periodic:period=8,down=2")["policy"] == "periodic"
        assert parse_churn_spec("periodic:period=8,down=2,stagger=3")["stagger"] == 3
        assert parse_churn_spec("random:p=0.5,period=10,down=4")["p"] == 0.5

    def test_jam_specs_parse(self):
        assert parse_jam_spec("periodic:period=5")["policy"] == "periodic"
        assert parse_jam_spec("periodic:period=5,offset=2")["offset"] == 2
        assert parse_jam_spec("random:rate=0.25")["rate"] == 0.25
        assert parse_jam_spec("reactive")["policy"] == "reactive"
        assert parse_jam_spec("reactive:min=3")["min"] == 3

    def test_burst_loss_specs_parse(self):
        params = parse_burst_loss_spec("p_gb=0.1,p_bg=0.3,good=0.05,bad=0.9")
        assert params["p_gb"] == 0.1 and params["bad"] == 0.9

    @pytest.mark.parametrize("field,spec", [
        ("churn", "nonsense"),
        ("churn", "periodic:period=0,down=0"),
        ("churn", "periodic:period=4,down=9"),
        ("churn", "random:p=1.5,period=4,down=1"),
        ("jam", "periodic"),
        ("jam", "random:rate=2"),
        ("jam", "random:rate=-0.1"),
        ("burst_loss", "p_gb=1.5,p_bg=0.2"),
        ("burst_loss", "p_gb=0.2"),
        ("burst_loss", "p_gb=0.2,p_bg=0.3,bad=7"),
    ])
    def test_bad_specs_rejected(self, field, spec):
        with pytest.raises(ValueError):
            validate_fault_spec(field, spec)

    def test_config_door_names_the_field(self):
        with pytest.raises(ExecutionConfigError, match="churn"):
            ExecutionConfig(churn="periodic:period=0,down=0")
        with pytest.raises(ExecutionConfigError, match="jam"):
            ExecutionConfig(jam="bogus:x=1")
        with pytest.raises(ExecutionConfigError, match="burst_loss"):
            ExecutionConfig(burst_loss="p_gb=2,p_bg=0.1")

    def test_ge_rates_validated(self):
        with pytest.raises(ValueError):
            GilbertElliottModel(NO_CD, p_gb=1.2, p_bg=0.5)
        with pytest.raises(ValueError):
            GilbertElliottModel(NO_CD, p_gb=0.2, p_bg=0.5, bad_rate=-0.1)
        GilbertElliottModel(NO_CD, p_gb=0.0, p_bg=1.0, good_rate=0.0,
                            bad_rate=1.0)

    def test_lossy_model_bounds_inclusive(self):
        LossyModel(NO_CD, 0.0)
        LossyModel(NO_CD, 1.0)
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            LossyModel(NO_CD, 1.01)
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            LossyModel(NO_CD, -0.5)

    def test_lossy_model_seed_rng_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            LossyModel(NO_CD, 0.5, seed=3, rng=random.Random(3))

    def test_campaign_row_rejects_bad_loss_rate(self):
        from repro.campaign.registry import execute_cell_block

        with pytest.raises(ExecutionConfigError, match="decay.*loss_rate"):
            execute_cell_block("decay", 16, [0], {"loss_rate": 1.5})
        with pytest.raises(ExecutionConfigError, match="decay.*loss_rate"):
            execute_cell_block("decay", 16, [0], {"loss_rate": "bogus"})

    def test_campaign_row_rejects_bad_fault_spec(self):
        from repro.campaign.registry import execute_cell_block

        with pytest.raises(ExecutionConfigError, match="churn"):
            execute_cell_block("decay", 16, [0], {"churn": "periodic:period=0,down=0"})


# --- schedules: determinism and query-order independence -------------------


class TestSchedules:
    def test_crash_schedule_explicit_intervals(self):
        schedule = CrashSchedule({0: [(2, 5)], 3: [(0, 1), (7, 9)]})
        assert not schedule.down(0, 1)
        assert schedule.down(0, 2) and schedule.down(0, 4)
        assert not schedule.down(0, 5)  # half-open
        assert schedule.down(3, 0) and schedule.down(3, 8)
        assert not schedule.down(1, 3)

    def test_crash_schedule_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            CrashSchedule({0: [(5, 2)]})
        with pytest.raises(ValueError):
            CrashSchedule({0: [(-1, 2)]})

    def test_periodic_churn_window(self):
        churn = PeriodicChurn(period=10, down=3, stagger=2)
        for v in range(4):
            for slot in range(40):
                assert churn.down(v, slot) == (
                    (slot - 2 * v) % 10 < 3
                ), (v, slot)

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_down_cells_answers_like_down(self):
        import numpy as np

        vertices = np.array([0, 1, 3, 4, 7], dtype=np.int64)
        for schedule in (
            CrashSchedule({0: [(2, 5)], 3: [(0, 1), (7, 9)]}),
            PeriodicChurn(period=10, down=3, stagger=2),
            RandomChurn(p=0.5, period=9, down=4, seed=7),
        ):
            for slot in range(40):
                assert list(schedule.down_cells(slot, vertices)) == [
                    schedule.down(v, slot) for v in vertices.tolist()
                ], (schedule, slot)

    def test_random_churn_is_query_order_independent(self):
        a = RandomChurn(p=0.5, period=9, down=4, seed=7)
        b = RandomChurn(p=0.5, period=9, down=4, seed=7)
        queries = [(v, s) for v in range(5) for s in range(60)]
        forward = {q: a.down(*q) for q in queries}
        rng = random.Random(0)
        shuffled = list(queries)
        rng.shuffle(shuffled)
        backward = {q: b.down(*q) for q in shuffled}
        assert forward == backward
        assert any(forward.values()) and not all(forward.values())

    def test_random_jammer_is_per_slot_stateless(self):
        a = RandomJammer(rate=0.4, seed=11)
        b = RandomJammer(rate=0.4, seed=11)
        slots = list(range(200))
        forward = [a.jams(s, 1) for s in slots]
        backward = [b.jams(s, 1) for s in reversed(slots)]
        assert forward == list(reversed(backward))
        assert any(forward) and not all(forward)

    def test_periodic_and_reactive_jammers(self):
        jam = PeriodicJammer(period=5, offset=2)
        assert [jam.jams(s, 0) for s in range(6)] == [
            False, False, True, False, False, False,
        ]
        reactive = ReactiveJammer(minimum=2)
        assert not reactive.jams(0, 1)
        assert reactive.jams(0, 2) and reactive.jams(9, 5)

    def test_fault_plan_is_shard_independent(self):
        """A trial's fault realization depends only on (spec, seed) —
        the identity campaign sharding preserves."""
        plan = parse_fault_specs(ExecutionConfig(
            churn="random:p=0.5,period=8,down=3", jam="random:rate=0.3",
        ))
        for seed in (0, 3, 17):
            _, churn_a = plan.for_trial(NO_CD, seed)
            _, churn_b = plan.for_trial(NO_CD, seed)
            jam_a = plan.build_jammer(seed)
            jam_b = plan.build_jammer(seed)
            for slot in range(50):
                assert jam_a.jams(slot, 1) == jam_b.jams(slot, 1)
                for v in range(4):
                    assert churn_a.down(v, slot) == churn_b.down(v, slot)


# --- feedback tables -------------------------------------------------------


class TestFeedback:
    def test_jam_feedback_covers_all_stock_models(self):
        from repro.sim.models import MODELS

        for name, model in MODELS.items():
            assert jam_feedback(model) is JAM_FEEDBACK[name]

    def test_jam_feedback_unwraps_wrappers(self):
        wrapped = JammedModel(
            GilbertElliottModel(CD, p_gb=0.1, p_bg=0.5), PeriodicJammer(3)
        )
        assert jam_feedback(wrapped) is NOISE

    def test_down_feedback_is_models_empty_reception(self):
        assert down_feedback(LOCAL) == ()
        assert down_feedback(CD) is SILENCE
        assert down_feedback(GilbertElliottModel(LOCAL, 0.1, 0.5)) == ()

    def test_jam_is_an_erasure_where_the_model_has_no_noise(self):
        # LOCAL protocols iterate their feedback as a message tuple, so a
        # jammed LOCAL listener hears the empty one, as a down one does.
        assert jam_feedback(LOCAL) == ()
        for model in (LOCAL, NO_CD):
            assert jam_feedback(model) == down_feedback(model)

    def test_jam_feedback_rejects_unknown_models(self):
        class Odd:
            name = "exotic"

        with pytest.raises(ValueError, match="exotic"):
            jam_feedback(Odd())


# --- the differential matrix -----------------------------------------------


@pytest.mark.parametrize("fault_name", sorted(FAULT_CONFIGS))
@pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
def test_fault_matrix_serial_lockstep_reference(fault_name, model_name):
    """Every fault family x model: serial == lock-step == oracle, for
    every resolution backend, with plans as yielded and per slot."""
    fault = FAULT_CONFIGS[fault_name]
    model = FIVE_MODELS[model_name]
    graph = path_graph(8)
    protocol = _random_protocol(25)
    seeds = [0, 1, 2]
    for resolution in RESOLUTIONS:
        config = ExecutionConfig(resolution=resolution, **fault)
        for form in (protocol, per_slot(protocol)):
            serial = run_trials(graph, model, form, seeds,
                                exec_config=config)
            lock = run_trials(graph, model, form, seeds,
                              exec_config=config.replace(lockstep=True))
            assert_same_run(serial, lock)
            plan = parse_fault_specs(config)
            for seed, result in zip(seeds, serial):
                oracle = ReferenceSimulator(
                    graph, model, seed=seed, faults=plan
                ).run(protocol)
                assert_same_run(oracle, result)


def test_fault_matrix_other_graphs():
    """Spot-check the composition config on non-path topologies."""
    fault = FAULT_CONFIGS["all-three"]
    protocol = _random_protocol(20)
    for graph in (
        star_graph(7),
        random_gnp(10, 0.4, random.Random(5), ensure_connected=True),
    ):
        config = ExecutionConfig(**fault)
        serial = run_trials(graph, NO_CD, protocol, [0, 1],
                            exec_config=config)
        lock = run_trials(graph, NO_CD, protocol, [0, 1],
                          exec_config=config.replace(lockstep=True))
        assert_same_run(serial, lock)


def _churn_plan_protocol(duplex: bool):
    """Send bursts, Bernoulli steps, a padded window and a mixed
    ``Steps`` plan — SendListen only where the model is full-duplex —
    then an adaptive tail."""

    def protocol(ctx):
        yield Repeat(Send(("r", ctx.index)), 1 + ctx.index % 3)
        if duplex:
            yield Repeat(SendListen(("d", ctx.index)), 2)
        yield bernoulli_steps(ctx, ("p", ctx.index), 0.5, 4)
        match = yield ListenUntil(6, pad=True)
        steps = (Listen(), Send(("s", ctx.index)), Idle(2), Listen(), Listen())
        if duplex:
            steps += (SendListen(("x", ctx.index)),)
        feedbacks = yield Steps(steps)
        tail = []
        for _ in range(3):
            if ctx.rng.random() < 0.4:
                yield Send(("t", ctx.index))
            else:
                tail.append((yield Listen()))
        return (ctx.index, repr(match), repr(feedbacks), repr(tail))

    return protocol


@pytest.mark.skipif(not numpy_available(), reason="the SoA engine needs numpy")
@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("churn", [
    "periodic:period=5,down=2,stagger=1",
    "random:p=0.5,period=6,down=3",
], ids=["periodic", "random"])
def test_churn_runs_on_soa_like_serial(churn, model_name):
    """Churned lock-step batches match the serial engine field for
    field — with a shared model and with per-seed lossy channels — and
    the shared-model arm matches the oracle.  Half-duplex No-CD runs on
    the trial-SoA engine; every other model runs on the serial engine
    with the verdict "model"."""
    model = MODELS[model_name]
    verdict = "ok" if model is NO_CD else "model"
    protocol = _churn_plan_protocol(model.full_duplex)
    seeds = [0, 1, 2]
    graphs = (
        clique(6),
        path_graph(9),
        random_gnp(10, 0.4, random.Random(3), ensure_connected=True),
    )
    for graph in graphs:
        for arm in ("shared", "lossy"):
            runs = {}
            for name in ("serial", "soa"):
                fields = {}
                if arm == "lossy":
                    fields["model_factory"] = (
                        lambda seed: LossyModel(model, 0.3, seed=seed)
                    )
                config = ExecutionConfig(
                    resolution="numpy", churn=churn,
                    lockstep=name == "soa", **fields,
                )
                runs[name] = run_trials(graph, model, protocol, seeds,
                                        exec_config=config)
            where = (graph.n, arm)
            assert [r.soa_reason for r in runs["soa"]] == [verdict] * 3, where
            for serial, soa in zip(runs["serial"], runs["soa"]):
                assert soa.outputs == serial.outputs, where
                assert soa.finish_slot == serial.finish_slot, where
                assert soa.duration == serial.duration, where
                assert soa.energy == serial.energy, where
                assert soa.gen_entries == serial.gen_entries, where
            if arm != "shared":
                continue
            plan = parse_fault_specs(ExecutionConfig(churn=churn))
            for seed, result in zip(seeds, runs["soa"]):
                oracle = ReferenceSimulator(
                    graph, model, seed=seed, faults=plan
                ).run(protocol)
                assert oracle.outputs == result.outputs, where
                assert oracle.finish_slot == result.finish_slot, where
                assert oracle.duration == result.duration, where
                assert oracle.energy == result.energy, where


@pytest.mark.skipif(not numpy_available(), reason="the SoA engine needs numpy")
def test_churn_on_soa_with_a_custom_count_model():
    """A count model without one of the paper models' classification
    rules: a lock-step batch, shared or under per-seed lossy wrappers,
    runs on the serial engine (verdict "model") and its down receivers
    hear the model's own empty reception, as in a serial run."""
    model = CountingModel("counting")
    graph = random_gnp(10, 0.4, random.Random(3), ensure_connected=True)
    protocol = _churn_plan_protocol(False)
    for fields in (
        {}, dict(model_factory=lambda seed: LossyModel(model, 0.3, seed=seed)),
    ):
        config = ExecutionConfig(
            resolution="numpy", churn="periodic:period=5,down=2,stagger=1",
            **fields,
        )
        serial = run_trials(graph, model, protocol, [0, 1, 2],
                            exec_config=config)
        soa = run_trials(graph, model, protocol, [0, 1, 2],
                         exec_config=config.replace(lockstep=True))
        assert [r.soa_reason for r in soa] == ["model"] * 3
        assert_same_run(serial, soa)


# --- SoA engagement and fallback taxonomy ----------------------------------


class TestSoAReasons:
    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    @pytest.mark.parametrize("fault,expected", [
        (dict(churn="periodic:period=8,down=2"), "ok"),
        (dict(jam="random:rate=0.2"), "jammer"),
        (dict(burst_loss="p_gb=0.1,p_bg=0.3"), "burst_loss"),
        (dict(), "ok"),
        (dict(churn="random:p=0.4,period=8,down=3"), "ok"),
    ])
    def test_verdicts(self, fault, expected):
        graph = path_graph(6)
        config = ExecutionConfig(lockstep=True, resolution="numpy", **fault)
        results = run_trials(graph, NO_CD, _random_protocol(15), [0, 1, 2],
                             exec_config=config)
        assert results[0].soa_reason == expected

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_ge_factory_models_fall_back_as_burst_loss(self):
        """Per-seed model factories break the shared-inner admission
        check: the verdict must say burst_loss, and results must still
        match serial."""
        graph = path_graph(6)
        config = ExecutionConfig(
            lockstep=True, resolution="numpy",
            burst_loss="p_gb=0.1,p_bg=0.3",
            model_factory=lambda seed: LossyModel(NO_CD, 0.2, seed=seed),
        )
        results = run_trials(graph, NO_CD, _random_protocol(15), [0, 1],
                             exec_config=config)
        assert results[0].soa_reason == "burst_loss"
        serial = run_trials(
            graph, NO_CD, _random_protocol(15), [0, 1],
            exec_config=config.replace(lockstep=False, resolution="bitmask"),
        )
        assert_same_run(serial, results)


# --- events ledger: old lock-step fields ----------------------------------


class TestEventsLedger:
    def test_unknown_reasons_render_gracefully(self):
        """Ledgers from when campaigns could run lock-step carry ``soa``
        and ``soa_reasons`` on ``block_completed``, verdicts of any
        name included; they still fold and render, without SoA lines."""
        from repro.campaign.fabric import (
            render_events_summary,
            summarize_events,
        )

        events = [
            {"ev": "run_started", "campaign": "x", "total": 2, "cached": 0,
             "pending": 2, "workers": 1},
            {"ev": "block_completed", "block": 0, "worker": 0, "ok": 1,
             "failed": 0, "elapsed": 0.1, "soa": 1},
            {"ev": "block_completed", "block": 1, "worker": 0, "ok": 1,
             "failed": 0, "elapsed": 0.1, "soa": 0,
             "soa_reasons": {"quantum_decoherence": 1, "ok": 1}},
            {"ev": "run_completed", "ok": 2, "errors": 0, "timeouts": 0,
             "quarantined": 0, "retries": 0, "elapsed": 0.2},
        ]
        summary = summarize_events(events)
        assert summary["last_run"]["cells_ok"] == 2
        text = render_events_summary(summary)
        assert "2 ok / 0 failed" in text
        assert "SoA" not in text and "quantum_decoherence" not in text


# --- degradation report ----------------------------------------------------


class TestDegradation:
    def test_fault_degradation_rows(self):
        from repro.campaign.cells import SweepPoint
        from repro.experiments.analysis import fault_degradation

        def point(n, time, energy, delivered, seeds=4):
            return SweepPoint(
                label="x", n=n, max_degree=3, diameter=4, seeds=seeds,
                delivered=delivered, time_median=time,
                max_energy_median=energy, mean_energy_median=energy / 2,
            )

        clean = [point(8, 100.0, 10.0, 4), point(16, 200.0, 20.0, 4)]
        faulted = [point(8, 150.0, 12.0, 2), point(32, 999.0, 99.0, 0)]
        rows = fault_degradation(clean, faulted)
        assert len(rows) == 1  # n=32 has no clean twin
        row = rows[0]
        assert row["n"] == 8
        assert row["time_ratio"] == pytest.approx(1.5)
        assert row["energy_ratio"] == pytest.approx(1.2)
        assert row["success_clean"] == 1.0
        assert row["success_faulted"] == 0.5

    def test_render_degradation_end_to_end(self, tmp_path):
        from repro.campaign import (
            CampaignSpec,
            CampaignStore,
            render_degradation,
            run_campaign,
        )

        spec = CampaignSpec.from_dict({
            "name": "degtest",
            "rows": [
                {"row": "path", "sizes": [32], "seeds": [0, 1]},
                {"row": "path", "sizes": [32], "seeds": [0, 1],
                 "options": {"burst_loss": "p_gb=0.03,p_bg=0.3,bad=0.7"}},
            ],
        })
        store = CampaignStore(os.path.join(str(tmp_path), "results.jsonl"))
        report = run_campaign(spec, store, progress=None)
        assert report.ok == 4
        text = render_degradation(spec, store)
        assert "vs clean twin path" in text
        assert "burst_loss=p_gb=0.03" in text

    def test_render_degradation_without_faulted_rows(self, tmp_path):
        from repro.campaign import (
            CampaignSpec,
            CampaignStore,
            render_degradation,
        )

        spec = CampaignSpec.from_dict({
            "name": "nofaults",
            "rows": [{"row": "path", "sizes": [32], "seeds": [0]}],
        })
        store = CampaignStore(os.path.join(str(tmp_path), "results.jsonl"))
        assert "no faulted rows" in render_degradation(spec, store)


# --- campaigns: sharding independence and crash harness --------------------


def _points_blob(points):
    return json.dumps(
        {k: [vars(p) for p in v] for k, v in points.items()},
        sort_keys=True, default=str,
    )


class TestFaultedCampaigns:
    SPEC = {
        "name": "faultcamp",
        "rows": [
            {"row": "decay", "sizes": [16], "seeds": [0, 1, 2]},
            {"row": "decay", "sizes": [16], "seeds": [0, 1, 2],
             "options": {"churn": "random:p=0.3,period=20,down=6",
                         "jam": "periodic:period=9",
                         "burst_loss": "p_gb=0.05,p_bg=0.25"}},
        ],
    }

    def test_fabric_sharding_matches_serial(self, tmp_path):
        from repro.campaign import (
            CampaignSpec,
            CampaignStore,
            aggregate_campaign,
            run_campaign,
            run_campaign_fabric,
        )

        spec = CampaignSpec.from_dict(self.SPEC)
        serial = CampaignStore(os.path.join(str(tmp_path), "s.jsonl"))
        run_campaign(spec, serial, progress=None)
        fabric = CampaignStore(os.path.join(str(tmp_path), "f", "r.jsonl"))
        report = run_campaign_fabric(
            spec, fabric, workers=2, backoff=0.05, heartbeat=0.2,
        )
        assert report.all_ok
        assert _points_blob(aggregate_campaign(spec, serial)) \
            == _points_blob(aggregate_campaign(spec, fabric))

    def test_injected_crash_under_faults(self, tmp_path, monkeypatch):
        """The fabric's crash-retry harness must preserve byte-identity
        for faulted rows too (a retried trial re-realizes the identical
        fault schedule from its seed)."""
        from repro.campaign import (
            CampaignSpec,
            CampaignStore,
            aggregate_campaign,
            run_campaign,
            run_campaign_fabric,
        )
        from repro.campaign.fabric import CRASH_ENV

        spec = CampaignSpec.from_dict(self.SPEC)
        serial = CampaignStore(os.path.join(str(tmp_path), "s.jsonl"))
        run_campaign(spec, serial, progress=None)
        marker = str(tmp_path / "crash.marker")
        monkeypatch.setenv(CRASH_ENV, marker)
        fabric = CampaignStore(os.path.join(str(tmp_path), "f", "r.jsonl"))
        report = run_campaign_fabric(
            spec, fabric, workers=2, backoff=0.05, heartbeat=0.2,
        )
        assert os.path.exists(marker)
        assert report.workers_died >= 1 and report.retries >= 1
        assert report.all_ok
        assert _points_blob(aggregate_campaign(spec, serial)) \
            == _points_blob(aggregate_campaign(spec, fabric))

    def test_resume_is_zero_new_cells(self, tmp_path):
        from repro.campaign import CampaignSpec, CampaignStore, run_campaign

        spec = CampaignSpec.from_dict(self.SPEC)
        store = CampaignStore(os.path.join(str(tmp_path), "r.jsonl"))
        first = run_campaign(spec, store, progress=None)
        assert first.ok == 6 and first.skipped == 0
        second = run_campaign(spec, store, progress=None)
        assert second.ok == 0 and second.skipped == 6


# --- registry rows under faults --------------------------------------------


ROW_FAULTS = {
    "churn": "periodic:period=16,down=4,stagger=1",
    "jam": "random:rate=0.15",
    "burst_loss": "p_gb=0.1,p_bg=0.3",
}


@pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
@pytest.mark.parametrize("row", sorted(ROW_REGISTRY))
def test_every_row_runs_under_each_fault_or_fails_at_load(row, fault):
    """Each registry row under each fault family, at its smallest
    default size and seed 0: spec load refuses the pair naming the row,
    or every cell comes back ok."""
    size = min(get_row(row).default_sizes)
    try:
        spec = CampaignSpec.from_dict({
            "name": "row-faults",
            "rows": [{"row": row, "sizes": [size], "seeds": [0],
                      "options": {fault: ROW_FAULTS[fault]}}],
        })
        spec.validate()
    except ValueError as exc:
        assert repr(row) in str(exc)
        return
    for block in spec.job_blocks():
        for record in execute_job({"job": block.to_dict()}):
            assert record["status"] == "ok", record["error"]


@pytest.mark.parametrize("row,graph,fault", [
    ("path", path_graph(24), dict(jam="random:rate=0.3")),
    ("det-local", cycle_graph(6), dict(churn=ROW_FAULTS["churn"])),
], ids=["path-jam", "det-local-churn"])
def test_faulted_local_rows_match_the_oracle(row, graph, fault):
    """A jammed Algorithm 1 run and a churned Theorem 25 run (whose
    members can miss their root's ID) end, and the engine equals the
    reference oracle on them."""
    definition = get_row(row)
    protocol = definition.builder(graph, {})
    knowledge = knowledge_for(graph, definition.id_space_from_n)
    config = ExecutionConfig(**fault)
    inputs = source_inputs(0, "m")
    for seed in (0, 1):
        engine = Simulator(
            graph, LOCAL, seed, knowledge=knowledge, exec_config=config,
        ).run(protocol, inputs)
        oracle = ReferenceSimulator(
            graph, LOCAL, seed=seed, knowledge=knowledge,
            faults=parse_fault_specs(config),
        ).run(protocol, inputs)
        assert_same_run(engine, oracle, f"{row} seed={seed}")


# --- hypothesis properties -------------------------------------------------


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

rates = st.floats(min_value=0.1, max_value=0.9)


class TestHypothesisProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        p=st.floats(min_value=0.05, max_value=0.95),
        period=st.integers(min_value=2, max_value=30),
        down=st.integers(min_value=1, max_value=6),
    )
    def test_random_churn_schedules_survive_sharding(self, seed, p, period, down):
        """The schedule a shard reconstructs from (spec, seed) is the
        one the serial run used — regardless of which slots/nodes each
        engine happens to query, or in what order."""
        down = min(down, period)
        make = lambda: RandomChurn(p=p, period=period, down=down, seed=seed)
        queries = [(v, s) for v in range(4) for s in range(3 * period)]
        reference = {q: make().down(*q) for q in queries}
        replay = make()
        rng = random.Random(seed)
        shuffled = list(queries)
        rng.shuffle(shuffled)
        for q in shuffled:
            assert replay.down(*q) == reference[q]

    @settings(max_examples=20, deadline=None)
    @given(p_gb=rates, p_bg=rates, seed=st.integers(0, 1000))
    def test_ge_chain_converges_to_stationary_loss(self, p_gb, p_bg, seed):
        """The empirical loss rate of a long GE run approaches the
        stationary loss the model advertises as ``loss_rate``."""
        model = GilbertElliottModel(
            NO_CD, p_gb=p_gb, p_bg=p_bg, good_rate=0.1, bad_rate=0.9,
            seed=seed,
        )
        slots = 5000
        lost = 0
        for slot in range(slots):
            model.begin_slot(slot, 1)
            if model.resolve(["m"]) is SILENCE:
                lost += 1
        assert lost / slots == pytest.approx(model.loss_rate, abs=0.08)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        fault=st.sampled_from(sorted(FAULT_CONFIGS)),
    )
    def test_fault_runs_are_reproducible(self, seed, fault):
        """Same (config, seed) -> byte-identical run, every time."""
        graph = path_graph(6)
        config = ExecutionConfig(**FAULT_CONFIGS[fault])
        protocol = _random_protocol(12)
        a = run_trials(graph, NO_CD, protocol, [seed], exec_config=config)
        b = run_trials(graph, NO_CD, protocol, [seed], exec_config=config)
        assert_same_run(a, b)
