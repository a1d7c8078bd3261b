"""ExecutionConfig: the one validated, serializable execution API.

Four contracts are pinned here:

* **Validation** — invalid modes/types fail at construction with the
  allowed values, at every entry door (constructor, ``from_dict``,
  campaign JSON, CLI) — never mid-run inside an engine loop.
* **One door** — every execution knob is an ``ExecutionConfig`` field
  and nothing else: passed as a kwarg to any of the execution
  signatures it is a ``TypeError``, and set on ``exec_config`` it
  reaches every one of them, changing only what it exists to change.
* **Round-trips** — ``to_dict``/``from_dict`` are inverses, campaign
  cell options and CLI args are views of the same schema, and
  ``ExecutionConfig.option_keys()`` / the CLI flag group are *derived*
  from the field definitions (no second hand-maintained list).
* **Key stability** — an execution option explicitly set to its default
  normalizes away, so it hashes (and resumes) identically to an omitted
  one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

from repro.broadcast.base import run_broadcast, run_broadcast_trials
from repro.campaign.cells import aggregate_cells, run_cells
from repro.campaign.spec import CampaignSpec, RowPlan
from repro.graphs import clique
from repro.sim import (
    NO_CD,
    ExecutionConfig,
    ExecutionConfigError,
    Knowledge,
    Listen,
    Send,
    SimResult,
    SimulationTimeout,
    Simulator,
    add_execution_args,
    config_from_args,
    execution_overrides,
    normalize_execution_options,
    run_trials,
    validate_execution_options,
)
from repro.sim.feedback import is_message
from repro.sim.observers import SlotObserver
from tests.conftest import per_slot


# --- shared workload: small, seed-sensitive, collision-bearing -------------

GRAPH = clique(3)
KNOWLEDGE = Knowledge(n=3, max_degree=2, diameter=1)
CHURN = "periodic:period=8,down=2"
INPUTS = {0: {"source": True, "payload": "m"}}


def bcast_proto(ctx):
    """A tiny randomized relay: rng-dependent, so byte-identity is a
    real check, and every node returns the payload it learned (the
    broadcast protocol convention)."""
    if ctx.inputs.get("source"):
        payload = ctx.inputs["payload"]
        for _ in range(3):
            yield Send(payload)
        return payload
    got = None
    for _ in range(8):
        feedback = yield Listen()
        if is_message(feedback):
            got = feedback
            break
    if got is not None and ctx.rng.random() < 0.5:
        yield Send(got)
    return got


# --- construction validation ----------------------------------------------


class TestValidation:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.resolution == "bitmask"
        assert not config.lockstep
        assert config.time_limit is None

    @pytest.mark.parametrize("field,value,expect", [
        ("resolution", "quantum", "bitmask"),
    ])
    def test_bad_mode_lists_allowed_values(self, field, value, expect):
        with pytest.raises(ValueError, match=expect) as exc:
            ExecutionConfig(**{field: value})
        assert field in str(exc.value)
        assert repr(value) in str(exc.value)

    @pytest.mark.parametrize("field,value", [
        ("lockstep", "yes"),
        ("record_trace", 2),
        ("contention_hist", 1.0),
    ])
    def test_bool_fields_are_strict(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExecutionConfig(**{field: value})

    @pytest.mark.parametrize("value", [0, -5, 2.5, True, "100"])
    def test_time_limit_must_be_positive_int(self, value):
        with pytest.raises(ValueError, match="time_limit"):
            ExecutionConfig(time_limit=value)

    @pytest.mark.parametrize("field", ["observer_factory", "model_factory"])
    def test_hooks_must_be_callable(self, field):
        with pytest.raises(ValueError, match=field):
            ExecutionConfig(**{field: "not-a-callable"})
        ExecutionConfig(**{field: lambda seed: None})  # fine

    def test_replace_revalidates(self):
        config = ExecutionConfig()
        with pytest.raises(ValueError, match="resolution"):
            config.replace(resolution="quantum")
        assert config.replace(resolution="numpy").resolution == "numpy"
        assert config.resolution == "bitmask"  # frozen: original untouched

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="vectorize"):
            ExecutionConfig.from_dict({"vectorize": True})

    def test_exec_config_must_be_a_config(self):
        with pytest.raises(ValueError, match="ExecutionConfig"):
            Simulator(GRAPH, NO_CD, exec_config={"resolution": "numpy"})

    def test_simulator_rejects_batch_level_fields(self):
        with pytest.raises(ValueError, match="lockstep"):
            Simulator(GRAPH, NO_CD, exec_config=ExecutionConfig(lockstep=True))
        with pytest.raises(ValueError, match="contention_hist"):
            Simulator(
                GRAPH, NO_CD,
                exec_config=ExecutionConfig(contention_hist=True),
            )
        with pytest.raises(ValueError, match="observer_factory"):
            Simulator(
                GRAPH, NO_CD,
                exec_config=ExecutionConfig(observer_factory=lambda s: ()),
            )

    def test_run_trials_rejects_contention_hist(self):
        with pytest.raises(ValueError, match="contention_hist"):
            run_trials(
                GRAPH, NO_CD, bcast_proto, (0,), inputs=INPUTS,
                exec_config=ExecutionConfig(contention_hist=True),
            )


# --- schema derivation -----------------------------------------------------


class TestSchema:
    def test_option_keys_drive_campaign_schema(self):
        assert ExecutionConfig.option_keys() == (
            "contention_hist", "churn", "jam", "burst_loss",
        )

    def test_cli_flags_derive_from_schema(self):
        # Exactly the campaign cell options get a flag: the execution
        # group is the CLI view of the option schema.
        parser = argparse.ArgumentParser()
        add_execution_args(parser)
        flags = {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        expected = set()
        for spec in ExecutionConfig.field_specs():
            if spec.metadata["cell_option"]:
                flag = spec.name.replace("_", "-")
                expected.add("--" + flag)
                if isinstance(spec.default, bool):
                    expected.add("--no-" + flag)
        assert flags == expected

    def test_excluded_flags_are_absent(self):
        parser = argparse.ArgumentParser()
        add_execution_args(parser, exclude=("contention_hist",))
        text = parser.format_help()
        assert "--churn" in text and "--burst-loss" in text
        assert "--contention-hist" not in text
        # Library-only fields never get a flag.
        assert "--resolution" not in text and "--lockstep" not in text
        # Absent flags read as "not given" to the overrides layer.
        assert execution_overrides(parser.parse_args([])) == {}

    def test_single_run_subcommands_reject_unusable_flags_at_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["figure1", "--contention-hist"],
            ["ablations", "--contention-hist"],
            ["bench", "--contention-hist"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_retired_flags_fail_at_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        for command in (
            ["figure1"], ["table1"], ["ablations"],
            ["campaign", "run", "c.json"],
        ):
            for retired in (
                ["--stepping", "slot"], ["--lockstep"],
                ["--resolution", "numpy"],
            ):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(command + retired)
                assert exc.value.code == 2


# --- serialization round-trips --------------------------------------------


class TestRoundTrip:
    def test_to_dict_is_minimal_by_default(self):
        assert ExecutionConfig().to_dict() == {}
        config = ExecutionConfig(resolution="numpy", lockstep=True)
        assert config.to_dict() == {"resolution": "numpy", "lockstep": True}

    def test_to_dict_include_defaults_covers_serializable_fields(self):
        data = ExecutionConfig().to_dict(include_defaults=True)
        assert set(data) == {
            "resolution", "lockstep", "time_limit",
            "record_trace", "contention_hist",
            "churn", "jam", "burst_loss",
        }

    @pytest.mark.parametrize("include_defaults", [False, True])
    def test_from_dict_inverts_to_dict(self, include_defaults):
        config = ExecutionConfig(
            resolution="numpy", lockstep=True, time_limit=123,
        )
        data = config.to_dict(include_defaults=include_defaults)
        json.loads(json.dumps(data))  # JSON-safe
        assert ExecutionConfig.from_dict(data) == config

    def test_hooks_never_serialize(self):
        config = ExecutionConfig(
            observer_factory=lambda s: (), model_factory=lambda s: NO_CD,
        )
        assert config.to_dict(include_defaults=True).keys() == (
            ExecutionConfig().to_dict(include_defaults=True).keys()
        )

    def test_from_options_ignores_protocol_knobs(self):
        config = ExecutionConfig.from_options(
            {"failure": 0.1, "contention_hist": True, "epsilon": 0.5}
        )
        assert config == ExecutionConfig(contention_hist=True)

    def test_campaign_json_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        options = {"contention_hist": True, "churn": CHURN}
        path.write_text(json.dumps({
            "name": "c",
            "rows": [{"row": "path", "sizes": [8], "seeds": [0],
                      "options": options}],
        }))
        spec = CampaignSpec.from_json_file(str(path))
        (job,) = list(spec.jobs())
        assert job.options_dict == options
        config = ExecutionConfig.from_options(job.options_dict)
        assert config == ExecutionConfig(contention_hist=True, churn=CHURN)

    def test_cli_args_round_trip(self):
        parser = argparse.ArgumentParser()
        add_execution_args(parser)
        args = parser.parse_args(["--churn", CHURN, "--contention-hist"])
        assert execution_overrides(args) == {
            "churn": CHURN, "contention_hist": True,
        }
        config = config_from_args(args)
        assert config == ExecutionConfig(churn=CHURN, contention_hist=True)
        # Nothing given -> nothing overridden.
        empty = parser.parse_args([])
        assert execution_overrides(empty) == {}
        assert config_from_args(empty) == ExecutionConfig()
        # --no-contention-hist is an explicit False (distinct from "not
        # given") so the CLI can override a cell option downward.
        off = parser.parse_args(["--no-contention-hist"])
        assert execution_overrides(off) == {"contention_hist": False}


# --- fail-fast campaign validation ----------------------------------------


class TestCampaignValidation:
    def _spec(self, options):
        return {
            "name": "bad",
            "rows": [{"row": "path", "sizes": [8], "seeds": [0],
                      "options": options}],
        }

    def test_bad_mode_rejected_at_load_with_allowed_values(self):
        with pytest.raises(ValueError, match="reactive") as exc:
            CampaignSpec.from_dict(self._spec({"jam": "quantum"}))
        assert "'path'" in str(exc.value)

    def test_bad_bool_rejected_at_load(self):
        with pytest.raises(ValueError, match="contention_hist"):
            CampaignSpec.from_dict(self._spec({"contention_hist": "yes"}))

    @pytest.mark.parametrize("reserved", [
        "record_trace", "time_limit", "meter_energy", "observer_factory",
    ])
    def test_reserved_non_option_fields_rejected_at_load(self, reserved):
        # Execution fields that are not cell options (or no longer
        # exist) must fail loudly, not ride the content hash as silently
        # ignored protocol knobs.
        with pytest.raises(ValueError, match=reserved):
            CampaignSpec.from_dict(self._spec({reserved: True}))

    @pytest.mark.parametrize("retired", [
        "stepping", "meter_energy", "workers", "retries", "heartbeat",
        "timeout", "lockstep", "resolution",
    ])
    def test_retired_fields_rejected_at_load(self, retired):
        # A retired field would otherwise pass as an opaque protocol
        # knob: ignored by the row, yet splitting the content hash.
        with pytest.raises(ValueError, match=retired) as exc:
            CampaignSpec.from_dict(self._spec({retired: "slot"}))
        assert "'path'" in str(exc.value)
        with pytest.raises(ExecutionConfigError, match="no longer"):
            validate_execution_options({retired: "slot"})

    def test_protocol_knobs_pass_through(self):
        spec = CampaignSpec.from_dict(self._spec({"failure": 0.1}))
        (job,) = list(spec.jobs())
        assert job.options_dict == {"failure": 0.1}

    def test_custom_cell_rows_honor_or_reject_execution_options(self):
        from repro.campaign.registry import execute_cell_block

        # The bare-Simulator ablation honors engine-level options (the
        # fault specs): bursty loss reaches its partition run...
        (tuned,) = execute_cell_block(
            "abl-beta", 12, (0,),
            {"beta": 0.3, "burst_loss": "p_gb=0.5,p_bg=0.1"},
        )
        (base,) = execute_cell_block("abl-beta", 12, (0,), {"beta": 0.3})
        assert (tuned.duration, tuned.max_energy) != (
            base.duration, base.max_energy
        )
        # ...and fails loudly on the batch-level one it cannot deliver —
        # it is part of the cell's identity, so silently storing
        # default-execution results under that key would be a lie.
        with pytest.raises(ValueError, match="contention_hist"):
            execute_cell_block(
                "abl-beta", 12, (0,), {"beta": 0.3, "contention_hist": True}
            )

    def test_custom_cell_unsupported_options_rejected_at_spec_validate(
        self, tmp_path, capsys
    ):
        # A campaign naming abl-beta with an option it cannot honor must
        # refuse before ANY cell runs — not fail every abl-beta cell
        # mid-run under an unsatisfiable identity.
        spec = CampaignSpec.from_dict({
            "name": "c",
            "rows": [{"row": "abl-beta", "sizes": [12], "seeds": [0],
                      "options": {"contention_hist": True}}],
        })
        with pytest.raises(ValueError, match="contention_hist"):
            spec.validate()
        # An option explicitly set to its default aliases an omitted
        # one (normalization), so it demands nothing of the row.
        CampaignSpec(
            name="c",
            rows=[RowPlan(row="abl-beta", sizes=(12,), seeds=(0,),
                          options={"contention_hist": False})],
        ).validate()
        # Same via CLI flag injection: exit 2, nothing executed.
        from repro.cli import main

        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "name": "c",
            "rows": [{"row": "abl-beta", "sizes": [12], "seeds": [0]}],
        }))
        out = str(tmp_path / "out")
        assert main([
            "campaign", "run", str(config), "--out", out,
            "--contention-hist",
        ]) == 2
        assert "abl-beta" in capsys.readouterr().out

    def test_validate_checks_programmatic_specs(self):
        spec = CampaignSpec(
            name="bad",
            rows=[RowPlan(row="path", sizes=(8,), seeds=(0,),
                          options={"jam": "quantum"})],
        )
        with pytest.raises(ValueError, match="reactive"):
            spec.validate()

    def test_cli_reports_bad_config_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self._spec({"jam": "quantum"})))
        assert main(["campaign", "status", str(path)]) == 2
        out = capsys.readouterr().out
        assert "reactive" in out and "quantum" in out


# --- content-hash key stability -------------------------------------------


class TestKeyStability:
    def test_normalize_drops_explicit_defaults_only(self):
        assert normalize_execution_options({
            "contention_hist": False,  # default: dropped
            "churn": None,             # default: dropped
            "jam": "random:rate=0.1",  # non-default: kept
            "failure": 0.02,           # protocol knob: untouched
        }) == {"jam": "random:rate=0.1", "failure": 0.02}

    def test_normalize_validates(self):
        with pytest.raises(ValueError, match="contention_hist"):
            normalize_execution_options({"contention_hist": "yes"})

    def test_default_valued_options_hash_like_omitted_ones(self):
        bare = CampaignSpec.from_dict({
            "name": "c", "rows": [{"row": "path", "sizes": [8], "seeds": [0]}],
        })
        explicit = CampaignSpec.from_dict({
            "name": "c",
            "rows": [{"row": "path", "sizes": [8], "seeds": [0],
                      "options": {"contention_hist": False,
                                  "churn": None}}],
        })
        bare_keys = [job.key() for job in bare.jobs()]
        explicit_keys = [job.key() for job in explicit.jobs()]
        assert bare_keys == explicit_keys

    def test_programmatic_specs_normalize_at_the_identity_layer(self):
        # Not just the from_dict door: a spec built in code with an
        # explicit-default option hashes like the option-free spec.
        bare = CampaignSpec(
            name="c", rows=[RowPlan(row="path", sizes=(8,), seeds=(0,))],
        )
        explicit = CampaignSpec(
            name="c",
            rows=[RowPlan(row="path", sizes=(8,), seeds=(0,),
                          options={"contention_hist": False})],
        )
        assert [j.key() for j in bare.jobs()] == [
            j.key() for j in explicit.jobs()
        ]

    def test_non_default_options_change_identity(self):
        bare = CampaignSpec.from_dict({
            "name": "c", "rows": [{"row": "path", "sizes": [8], "seeds": [0]}],
        })
        tuned = CampaignSpec.from_dict({
            "name": "c",
            "rows": [{"row": "path", "sizes": [8], "seeds": [0],
                      "options": {"contention_hist": True}}],
        })
        assert [j.key() for j in bare.jobs()] != [j.key() for j in tuned.jobs()]

    def test_cell_options_view_is_minimal(self):
        # A config's cell options are its option-key subset; normalized,
        # only the non-default values remain (the content-hash shape).
        config = ExecutionConfig(
            contention_hist=True, lockstep=True, time_limit=99
        )
        options = {
            key: value
            for key, value in config.to_dict(include_defaults=True).items()
            if key in ExecutionConfig.option_keys()
        }
        assert set(options) == set(ExecutionConfig.option_keys())
        assert normalize_execution_options(options) == {
            "contention_hist": True,
        }


# --- one door: every knob is an ExecutionConfig field, at every entry -------
#
# Each runner drives one execution signature on the shared workload and
# returns its records: SimResults where the entry exposes them, cell
# records (SweepPoint / CellResult) otherwise.  ``**kwargs`` are passed
# straight to the entry, so a stray per-knob kwarg reaches its signature.


def _run_simulator(exec_config=None, **kwargs):
    sim = Simulator(
        GRAPH, NO_CD, seed=2, knowledge=KNOWLEDGE,
        exec_config=exec_config, **kwargs,
    )
    return [sim.run(bcast_proto, inputs=INPUTS)]


def _run_trials(exec_config=None, **kwargs):
    return run_trials(
        GRAPH, NO_CD, bcast_proto, (0, 1, 2), inputs=INPUTS,
        knowledge=KNOWLEDGE, exec_config=exec_config, **kwargs,
    )


def _run_lockstep(exec_config=None, **kwargs):
    config = (exec_config or ExecutionConfig()).replace(lockstep=True)
    return _run_trials(exec_config=config, **kwargs)


def _run_broadcast_trials(exec_config=None, **kwargs):
    outcomes = run_broadcast_trials(
        GRAPH, NO_CD, bcast_proto, (0, 1), knowledge=KNOWLEDGE,
        exec_config=exec_config, **kwargs,
    )
    return [outcome.sim for outcome in outcomes]


def _run_broadcast(exec_config=None, **kwargs):
    outcome = run_broadcast(
        GRAPH, NO_CD, bcast_proto, seed=3, knowledge=KNOWLEDGE,
        exec_config=exec_config, **kwargs,
    )
    return [outcome.sim]


def _run_cells(exec_config=None, protocol=bcast_proto, **kwargs):
    return run_cells(
        GRAPH, NO_CD, protocol, label="cell", size=3, seeds=(0, 1),
        knowledge=KNOWLEDGE, exec_config=exec_config, **kwargs,
    )


def _one_seed_cell(exec_config=None, **kwargs):
    """A one-seed cell: ``run_cells`` over ``seeds=(1,)``."""
    return run_cells(
        GRAPH, NO_CD, bcast_proto, label="cell", size=3, seeds=(1,),
        knowledge=KNOWLEDGE, exec_config=exec_config, **kwargs,
    )


def _outcome(record):
    """What no execution knob may change: a run's outputs and timing, or
    a cell record (energy included) minus its analytics extras."""
    if isinstance(record, SimResult):
        return (record.seed, record.outputs, record.finish_slot,
                record.duration)
    return dataclasses.replace(record, extras={})


def _energy(record):
    """A run's per-node meters (a cell record's sit in its outcome)."""
    if isinstance(record, SimResult):
        return [(e.sends, e.listens, e.total) for e in record.energy]
    return None


class _SlotTally:
    """An ``observer_factory`` that counts the slots each seed's
    observer sees."""

    def __init__(self):
        self.slots = {}

    def __call__(self, seed):
        tally = self

        class Counter(SlotObserver):
            def on_slot(self, *args):
                tally.slots[seed] += 1

        self.slots[seed] = 0
        return (Counter(),)


class _ModelTally:
    """A ``model_factory`` that records the seeds it builds for."""

    def __init__(self):
        self.seeds = []

    def __call__(self, seed):
        self.seeds.append(seed)
        return NO_CD


# Per knob: (fresh value, the knob's effect on ``tuned`` vs ``base``).


def _same_energy(runner, value, base, tuned):
    assert [_energy(r) for r in tuned] == [_energy(r) for r in base]


def _time_limit_effect(runner, value, base, tuned):
    _same_energy(runner, value, base, tuned)
    with pytest.raises(SimulationTimeout):
        # The source alone transmits for three slots.
        runner(exec_config=ExecutionConfig(time_limit=1))


def _record_trace_effect(runner, value, base, tuned):
    _same_energy(runner, value, base, tuned)
    for plain, traced in zip(base, tuned):
        if isinstance(traced, SimResult):
            assert plain.trace is None and list(traced.trace)


def _lockstep_effect(runner, value, base, tuned):
    _same_energy(runner, value, base, tuned)
    for serial, lockstep in zip(base, tuned):
        if isinstance(lockstep, SimResult):
            assert serial.soa_reason is None
            assert lockstep.soa_reason is not None


def _observer_factory_effect(runner, value, base, tuned):
    _same_energy(runner, value, base, tuned)
    assert sorted(value.slots) == sorted(r.seed for r in tuned)
    assert all(value.slots.values())


def _model_factory_effect(runner, value, base, tuned):
    _same_energy(runner, value, base, tuned)
    assert value.seeds == [r.seed for r in tuned]


def _contention_hist_effect(runner, value, base, tuned):
    _same_energy(runner, value, base, tuned)
    assert not any(r.extras for r in base)
    assert all(
        any(key.startswith("ch_") for key in r.extras) for r in tuned
    )


_KNOBS = {
    "time_limit": (lambda: 5_000, _time_limit_effect),
    "record_trace": (lambda: True, _record_trace_effect),
    "resolution": (lambda: "numpy", _same_energy),
    "lockstep": (lambda: True, _lockstep_effect),
    "observer_factory": (_SlotTally, _observer_factory_effect),
    "model_factory": (_ModelTally, _model_factory_effect),
    "contention_hist": (lambda: True, _contention_hist_effect),
}

_ENTRIES = {
    "Simulator": (_run_simulator, (
        "time_limit", "record_trace", "resolution",
    )),
    "run_trials": (_run_trials, (
        "time_limit", "record_trace", "resolution", "lockstep",
        "observer_factory", "model_factory",
    )),
    "lockstep_run_trials": (_run_lockstep, (
        "resolution", "time_limit", "record_trace", "observer_factory",
        "model_factory",
    )),
    "run_broadcast_trials": (_run_broadcast_trials, (
        "time_limit", "record_trace", "resolution", "lockstep",
        "observer_factory",
    )),
    "run_broadcast": (_run_broadcast, ("time_limit", "record_trace")),
    "run_cells": (_run_cells, (
        "record_trace", "resolution", "lockstep", "contention_hist",
    )),
    "one_seed_cell": (_one_seed_cell, ("resolution", "contention_hist")),
}

_KNOB_CASES = [
    (entry, knob) for entry, (_, knobs) in _ENTRIES.items() for knob in knobs
]


class TestOneDoor:
    @pytest.mark.parametrize(
        "entry,knob", _KNOB_CASES,
        ids=[f"{entry}-{knob}" for entry, knob in _KNOB_CASES],
    )
    def test_knob_reaches_entry_only_via_exec_config(self, entry, knob):
        runner, _ = _ENTRIES[entry]
        make, effect = _KNOBS[knob]
        with pytest.raises(TypeError, match=knob):
            runner(**{knob: make()})
        value = make()
        base = runner()
        tuned = runner(exec_config=ExecutionConfig(**{knob: value}))
        assert [_outcome(r) for r in tuned] == [_outcome(r) for r in base]
        effect(runner, value, base, tuned)

    def test_options_after_the_seed_are_keyword_only(self):
        # A stale positional call fails loudly instead of binding an
        # option to the wrong parameter.
        with pytest.raises(TypeError):
            Simulator(GRAPH, NO_CD, 0, KNOWLEDGE)
        with pytest.raises(TypeError):
            run_trials(GRAPH, NO_CD, bcast_proto, (0,), INPUTS)
        with pytest.raises(TypeError):
            run_broadcast(GRAPH, NO_CD, bcast_proto, 0, "m", 3, KNOWLEDGE)


# --- the exposure gaps the redesign closes --------------------------------


class TestSweepFullControl:
    def test_sweep_stepping_and_lockstep_are_byte_identical(self):
        base = aggregate_cells(_run_cells())
        for protocol, config in (
            (per_slot(bcast_proto), None),
            (bcast_proto, ExecutionConfig(lockstep=True)),
            (per_slot(bcast_proto), ExecutionConfig(lockstep=True)),
        ):
            assert aggregate_cells(
                _run_cells(exec_config=config, protocol=protocol)
            ) == base

    def test_sweep_per_seed_observers(self):
        seen = []

        class Counter(SlotObserver):
            def __init__(self, seed):
                self.seed = seed
                self.slots = 0

            def on_slot(self, *args):
                self.slots += 1

        def factory(seed):
            observer = Counter(seed)
            seen.append(observer)
            return (observer,)

        cells = _run_cells(
            exec_config=ExecutionConfig(observer_factory=factory)
        )
        assert cells == _run_cells()
        assert sorted(o.seed for o in seen) == [0, 1]
        assert all(o.slots > 0 for o in seen)

    def test_sweep_contention_hist_stacks_on_user_observers(self):
        seen = []
        config = ExecutionConfig(
            contention_hist=True,
            observer_factory=lambda seed: seen.append(seed) or (),
        )
        cells = _run_cells(exec_config=config)
        assert sorted(seen) == [0, 1]
        assert any(key.startswith("ch_") for key in cells[0].extras)

    def test_table1_cli_accepts_execution_flags(self, capsys):
        from repro.cli import main

        assert main([
            "table1", "path", "--seeds", "1", "--sizes-scale", "0.05",
            "--contention-hist", "--churn", CHURN,
        ]) == 0
        assert "delivered" in capsys.readouterr().out

    def test_table1_lb_rows_honor_execution_flags(self, capsys):
        from repro.cli import main

        # The lower-bound rows are campaign rows like the others, so the
        # shared flags reach them rather than being dropped...
        assert main([
            "table1", "lb-reduction", "--seeds", "1", "--sizes-scale",
            "0.5", "--jam", "random:rate=0.1",
        ]) == 0
        assert "T_LE" in capsys.readouterr().out
        # ...the contention histogram included.
        assert main([
            "table1", "lb-path", "--seeds", "1", "--sizes-scale", "0.05",
            "--contention-hist",
        ]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out and "ch_mean_load" in out

    def test_campaign_cli_accepts_execution_flags(self, tmp_path, capsys):
        from repro.cli import main

        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "name": "c",
            "rows": [{"row": "path", "sizes": [8], "seeds": [0]}],
        }))
        out = str(tmp_path / "out")
        assert main([
            "campaign", "run", str(config), "--out", out,
            "--contention-hist",
        ]) == 0
        first = capsys.readouterr().out
        assert "1 cells" in first and "ch_mean_load" in first
        # Same flags -> same identity -> full cache hit.
        assert main([
            "campaign", "run", str(config), "--out", out,
            "--contention-hist",
        ]) == 0
        assert "1 cached, 0 computed" in capsys.readouterr().out
