"""``ExecutionConfig``: one validated description of *how* a run executes.

The engine grew orthogonal execution knobs — ``resolution`` backend,
``lockstep`` trial batching, and observer/analytics wiring — and each
used to be hand-threaded through every entry point's signature
(``Simulator``, ``run_trials``, ``run_broadcast_trials``,
``run_cells``), a hand-maintained option-key tuple in
:mod:`repro.campaign.cells`, and per-subcommand CLI flags.  This module
replaces that plumbing with config-as-data:

* :class:`ExecutionConfig` is a frozen dataclass that validates on
  construction (unknown modes fail fast, listing the allowed values) and
  round-trips via :meth:`~ExecutionConfig.to_dict` /
  :meth:`~ExecutionConfig.from_dict`;
* the dataclass *fields themselves* are the schema: per-field metadata
  marks which fields are campaign cell options
  (:meth:`~ExecutionConfig.option_keys`), and exactly those get CLI
  flags (:func:`add_execution_args` builds one shared argparse group for
  the ``table1``, ``campaign``, ``ablations``, and ``figure1``
  subcommands);
* every entry point takes ``exec_config=`` (None means the defaults)
  and no per-knob keyword arguments.

Adding the next knob is one edit here: a new field (with metadata) shows
up in validation, serialization, the campaign option schema, and the CLI
group automatically — engine code then reads it off the config.  How a
campaign *dispatches* its cells (worker count, retries, heartbeat,
per-cell timeout) is not a trial's business: those values live in
:class:`repro.campaign.runner.RunnerOptions`.

Semantics contract: ``resolution`` and ``lockstep`` steer *how* a
batch executes, never what it measures (byte-identical results, pinned
by the differential suites).  They are library fields for direct
callers of the simulator API such as :func:`repro.sim.batch.run_trials`
(``repro bench`` and perfbench time them), not campaign cell options:
no reproduced number runs faster under them, so a config naming one
fails at spec load and no subcommand has a flag for them.  The
remaining fields are honest-by-name exceptions: ``record_trace``
attaches a per-slot trace to each result (the Figure 1 timeline reads
it; campaign rows measure with observers instead) and
``contention_hist`` adds ``ch_*`` extras (which is why the latter is
part of a campaign cell's content-hash identity), the fault specs
change the channel itself, and ``time_limit`` can abort a run — which
is why it is not a campaign cell option.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.sim.resolution import RESOLUTION_MODES

__all__ = [
    "ExecutionConfig",
    "ExecutionConfigError",
    "add_execution_args",
    "config_from_args",
    "execution_overrides",
    "normalize_execution_options",
    "resolve_exec_config",
    "validate_execution_options",
]


class ExecutionConfigError(ValueError):
    """An ExecutionConfig is invalid, or a layer was handed a config
    field it cannot honor.

    A ``ValueError`` subclass so existing ``except ValueError`` callers
    keep working, but distinct enough that CLI handlers can convert
    *configuration* mistakes into clean one-line messages while genuine
    runtime ``ValueError``\\ s keep their tracebacks.
    """


def _meta(
    help: str,
    choices: Optional[Tuple[str, ...]] = None,
    cell_option: bool = False,
    hook: bool = False,
    fault: bool = False,
) -> Dict[str, Any]:
    return {
        "help": help,
        "choices": choices,
        "cell_option": cell_option,
        "hook": hook,
        "fault": fault,
    }


@dataclass(frozen=True)
class ExecutionConfig:
    """How a simulation cell executes — never *what* it measures.

    Construct directly, via :meth:`from_dict` (campaign JSON / stored
    options), or via :func:`config_from_args` (CLI); derive variants
    with :meth:`replace`.  Validation happens on construction, so an
    invalid mode never travels into an engine loop.
    """

    resolution: str = field(default="bitmask", metadata=_meta(
        "reception-resolution backend (see repro.sim.resolution)",
        choices=RESOLUTION_MODES,
    ))
    lockstep: bool = field(default=False, metadata=_meta(
        "run a trial batch on the trial-SoA engine when eligible, else "
        "serially (repro.sim.batch); byte-identical results",
    ))
    time_limit: Optional[int] = field(default=None, metadata=_meta(
        "slot budget per run; None uses the entry point's default",
    ))
    record_trace: bool = field(default=False, metadata=_meta(
        "record a per-slot event trace (repro.sim.trace)",
    ))
    contention_hist: bool = field(default=False, metadata=_meta(
        "attach a per-trial ContentionHistogramObserver and fold its "
        "summary into cell extras as ch_* keys (changes cell identity)",
        cell_option=True,
    ))
    churn: Optional[str] = field(default=None, metadata=_meta(
        "node churn schedule: 'periodic:period=P,down=D[,stagger=S]' or "
        "'random:p=R,period=P,down=D' — down nodes neither transmit nor "
        "hear; deterministic per trial seed (repro.sim.faults; changes "
        "what cells measure, like any fault knob)",
        cell_option=True, fault=True,
    ))
    jam: Optional[str] = field(default=None, metadata=_meta(
        "slot-level jamming adversary: 'periodic:period=P[,offset=K]', "
        "'random:rate=R', or 'reactive[:min=K]' — jammed slots resolve "
        "to the model's collision feedback (repro.sim.faults)",
        cell_option=True, fault=True,
    ))
    burst_loss: Optional[str] = field(default=None, metadata=_meta(
        "Gilbert-Elliott bursty loss: 'p_gb=R,p_bg=R[,good=R][,bad=R]' "
        "— two-state Markov fade wrapping the row's model "
        "(repro.sim.faults)",
        cell_option=True, fault=True,
    ))
    observer_factory: Optional[Callable[[int], Sequence[Any]]] = field(
        default=None, metadata=_meta(
            "per-seed SlotObserver constructor (seed -> observers); the "
            "required observer form for run_trials (a lock-step batch "
            "with observers runs serially)",
            hook=True,
        ))
    model_factory: Optional[Callable[[int], Any]] = field(
        default=None, metadata=_meta(
            "per-seed ChannelModel constructor for stateful channels "
            "(seed -> model); under lockstep, factories producing "
            "LossyModel wrappers of one shared No-CD inner model stay "
            "on the trial-SoA fast path (vectorized drop masks)",
            hook=True,
        ))

    def __post_init__(self) -> None:
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            meta = spec.metadata
            if meta["choices"] is not None:
                if value not in meta["choices"]:
                    raise ExecutionConfigError(
                        f"{spec.name} must be one of {meta['choices']}, "
                        f"got {value!r}"
                    )
            elif meta["hook"]:
                if value is not None and not callable(value):
                    raise ExecutionConfigError(
                        f"{spec.name} must be a callable (seed -> ...) or "
                        f"None, got {value!r}"
                    )
            elif meta["fault"]:
                if value is None:
                    continue
                if not isinstance(value, str) or not value:
                    raise ExecutionConfigError(
                        f"{spec.name} must be a fault spec string or None "
                        f"(see repro.sim.faults), got {value!r}"
                    )
                # Lazy import: faults builds on models; keeping the
                # schema layer import-light avoids any cycle risk.
                from repro.sim.faults import validate_fault_spec

                try:
                    validate_fault_spec(spec.name, value)
                except ValueError as exc:
                    raise ExecutionConfigError(
                        f"{spec.name}: {exc}"
                    ) from None
            elif spec.name == "time_limit":
                if value is not None and (
                    isinstance(value, bool)
                    or not isinstance(value, int)
                    or value <= 0
                ):
                    raise ExecutionConfigError(
                        f"time_limit must be a positive int or None, "
                        f"got {value!r}"
                    )
            elif not isinstance(value, bool):
                raise ExecutionConfigError(
                    f"{spec.name} must be true or false, got {value!r}"
                )

    # -- schema self-description -------------------------------------

    @classmethod
    def field_specs(cls) -> Tuple[dataclasses.Field, ...]:
        """The schema: dataclass fields with their steering metadata."""
        return dataclasses.fields(cls)

    @classmethod
    def option_keys(cls) -> Tuple[str, ...]:
        """Fields that ride in a campaign cell's ``options`` dict."""
        return tuple(
            spec.name for spec in cls.field_specs()
            if spec.metadata["cell_option"]
        )

    # -- serialization ------------------------------------------------

    def to_dict(self, include_defaults: bool = False) -> Dict[str, Any]:
        """JSON-safe dict of the serializable fields.

        Hooks (``observer_factory``, ``model_factory``) are process-local
        callables and are always excluded.  By default only non-default
        values are emitted, so the dict is a *minimal* description — the
        shape campaign cell options and content-hash keys are built
        from (an option explicitly set to its default serializes the
        same as an omitted one).
        """
        data: Dict[str, Any] = {}
        for spec in self.field_specs():
            if spec.metadata["hook"]:
                continue
            value = getattr(self, spec.name)
            if include_defaults or value != spec.default:
                data[spec.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExecutionConfig":
        """Build and validate a config from a dict; unknown keys fail."""
        allowed = {
            spec.name for spec in cls.field_specs()
            if not spec.metadata["hook"]
        }
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ExecutionConfigError(
                f"unknown execution option(s) {unknown}; "
                f"allowed: {sorted(allowed)}"
            )
        return cls(**data)

    @classmethod
    def from_options(cls, options: Optional[Dict]) -> "ExecutionConfig":
        """Extract and validate the execution subset of a mixed cell
        ``options`` dict (protocol knobs like ``failure`` are ignored)."""
        if not options:
            return cls()
        keys = cls.option_keys()
        return cls(**{key: options[key] for key in keys if key in options})

    def replace(self, **changes: Any) -> "ExecutionConfig":
        """A validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def resolved_time_limit(self, default: int) -> int:
        """The effective slot budget given an entry point's default."""
        return default if self.time_limit is None else self.time_limit


_OPTION_DEFAULTS = {
    spec.name: spec.default
    for spec in ExecutionConfig.field_specs()
    if spec.metadata["cell_option"]
}

# Execution fields that are NOT campaign cell options (record_trace
# serves the Figure 1 timeline and direct callers, time_limit can abort
# a run, hooks are process-local; resolution and lockstep are retired
# as options below).  They are reserved names: a cell options dict using
# one would otherwise pass as an opaque protocol knob — silently
# ignored, yet still part of the content-hash identity.
_RESERVED_NON_OPTION_FIELDS = frozenset(
    spec.name for spec in ExecutionConfig.field_specs()
) - set(ExecutionConfig.option_keys())

# Retired execution fields and the runner options (timeout never was an
# execution field, yet reads like one), refused for the same reason: a
# config naming one would otherwise pass as an opaque protocol knob.
_RUNNER_OPTION = (
    "it steers how a campaign run dispatches cells "
    "(repro.campaign.runner.RunnerOptions); pass it to campaign run / "
    "run-all as a runner flag"
)
_LIBRARY_FIELD = (
    "campaign cells always run serially on the bitmask backend; it "
    "stays an ExecutionConfig field for library callers of "
    "repro.sim.batch.run_trials"
)
_RETIRED_FIELDS = {
    "stepping": "engines always run plans phase-compiled; wrap a "
                "protocol in repro.sim.expand_plans for per-slot yields",
    "meter_energy": "every run meters energy, the paper's measure",
    "workers": _RUNNER_OPTION,
    "retries": _RUNNER_OPTION,
    "heartbeat": _RUNNER_OPTION,
    "timeout": _RUNNER_OPTION,
    "resolution": _LIBRARY_FIELD,
    "lockstep": _LIBRARY_FIELD,
}


def validate_execution_options(options: Optional[Dict]) -> None:
    """Fail fast on an invalid, reserved or retired execution option in
    a mixed cell options dict (raises :class:`ExecutionConfigError`
    naming the allowed values)."""
    if not options:
        return
    retired = sorted(set(options) & set(_RETIRED_FIELDS))
    if retired:
        raise ExecutionConfigError("; ".join(
            f"{name!r} is no longer an execution option: "
            f"{_RETIRED_FIELDS[name]}"
            for name in retired
        ))
    reserved = sorted(set(options) & _RESERVED_NON_OPTION_FIELDS)
    if reserved:
        raise ExecutionConfigError(
            f"{reserved} are execution fields but not campaign cell "
            f"options (rows measure with observers, not traces; time "
            f"limits and hooks belong to the caller); cell options are "
            f"{sorted(ExecutionConfig.option_keys())}"
        )
    ExecutionConfig.from_options(options)
    # loss_rate is a channel knob consumed by the campaign registry (it
    # wraps the row's model in per-seed LossyModel factories), not an
    # ExecutionConfig field — but a bad rate should still fail at config
    # load like the fault specs do, not mid-sweep as a cell error.
    if "loss_rate" in options:
        raw = options["loss_rate"]
        try:
            rate = float(raw)
        except (TypeError, ValueError):
            raise ExecutionConfigError(
                f"loss_rate must be a number in [0, 1], got {raw!r}"
            ) from None
        if not 0 <= rate <= 1:
            raise ExecutionConfigError(
                f"loss_rate must be in [0, 1], got {rate!r}"
            )


def normalize_execution_options(options: Dict) -> Dict:
    """Validate a mixed cell options dict and drop execution options
    explicitly set to their default value.

    Campaign content-hash keys are built from the options dict, so
    ``{"contention_hist": False}`` and ``{}`` must alias the same stored
    cell — the minimal shape is the durable identity.  Non-execution
    entries (protocol knobs) pass through untouched, in order.
    """
    validate_execution_options(options)
    return {
        key: value for key, value in options.items()
        if key not in _OPTION_DEFAULTS or value != _OPTION_DEFAULTS[key]
    }


def resolve_exec_config(
    exec_config: Optional[ExecutionConfig],
) -> ExecutionConfig:
    """The config an entry point runs with: ``exec_config`` itself, or
    the defaults when it is None.  Anything else is rejected with a
    message naming how to build a config."""
    if exec_config is None:
        return ExecutionConfig()
    if not isinstance(exec_config, ExecutionConfig):
        raise ExecutionConfigError(
            f"exec_config must be an ExecutionConfig (or None), got "
            f"{exec_config!r}; build one with ExecutionConfig(...) or "
            f"ExecutionConfig.from_dict(...)"
        )
    return exec_config


# -- shared CLI surface ----------------------------------------------------


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def add_execution_args(
    parser: argparse.ArgumentParser,
    exclude: Sequence[str] = (),
):
    """Add the shared execution-options group to an argparse parser.

    One flag per campaign cell option of :class:`ExecutionConfig`,
    generated from the field schema — subcommands share identical flags
    and help text, and a new knob added to the schema appears everywhere
    at once.
    Defaults are ``None`` ("not given"), so :func:`execution_overrides`
    can layer CLI > cell options > defaults.  ``exclude`` names fields a
    subcommand cannot honor (e.g. ``contention_hist`` on ``figure1``):
    better no flag at all than one that fails after work has started.
    """
    group = parser.add_argument_group(
        "execution",
        "how cells execute — measurements are identical unless a field's "
        "help says otherwise (see repro.sim.config.ExecutionConfig)",
    )
    for spec in ExecutionConfig.field_specs():
        if not spec.metadata["cell_option"] or spec.name in exclude:
            continue
        if spec.metadata["fault"]:
            group.add_argument(
                _flag(spec.name),
                dest=spec.name,
                metavar="SPEC",
                default=None,
                help=f"{spec.metadata['help']} (default: off)",
            )
        else:
            group.add_argument(
                _flag(spec.name),
                dest=spec.name,
                action=argparse.BooleanOptionalAction,
                default=None,
                help=f"{spec.metadata['help']} (default: {spec.default})",
            )
    return group


def execution_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    """The execution options explicitly given on the command line."""
    overrides: Dict[str, Any] = {}
    for name in ExecutionConfig.option_keys():
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return overrides


def config_from_args(
    args: argparse.Namespace,
    base: Optional[ExecutionConfig] = None,
) -> ExecutionConfig:
    """Build a config from parsed CLI args layered over ``base``."""
    base = ExecutionConfig() if base is None else base
    overrides = execution_overrides(args)
    return base.replace(**overrides) if overrides else base
