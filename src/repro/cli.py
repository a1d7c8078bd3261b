"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figure1 [--n N] [--seed S]`` — render the Figure 1 timeline.
* ``table1 [ROW ...] [--seeds N] [--sizes-scale F]`` — print Table 1:
  the rows of ``configs/table1.json`` (or the named registry rows) run
  as an in-memory campaign and rendered as ``campaign report`` renders
  them.  ``--seeds N`` runs seeds ``0..N-1``; ``--sizes-scale F``
  multiplies each row's default sizes by F.
* ``ablations`` — print the DESIGN ablations: the rows of
  ``configs/ablations.json``, run the same way.
* ``demo`` — the quickstart comparison on a 128-hop chain.
* ``campaign run CONFIG [--workers N] [--retries K] [--heartbeat S]
  [--out DIR] [--timeout S]`` — execute a declarative sweep campaign
  with results cached in an append-only store (re-runs compute only the
  delta).  ``--workers`` engages the fault-tolerant fabric: persistent
  worker processes that send their records to the parent, the store's
  one writer, retry with backoff, poison-block quarantine, and a live
  events ledger.  Without a fabric flag the campaign runs serially
  in-process, the differential oracle.  A bad runner value (``--workers
  0``, ``--retries -1``, ``--heartbeat -1``, ``--timeout 0``) exits 2
  before anything runs.  The four runner flags are the fields of
  :class:`repro.campaign.runner.RunnerOptions`; ``campaign run`` and
  ``run-all`` share them.
* ``campaign status CONFIG [--out DIR] [--watch] [--interval S]`` —
  per-row completion accounting; ``--watch`` adds the live fabric view
  (throughput, ETA, per-worker state) replayed from the events ledger.
* ``campaign report CONFIG [--out DIR] [--events] [--degradation]`` —
  render Table-1-style tables from the store; ``--events`` appends the
  fabric events summary (per-worker tallies, retries, quarantines);
  ``--degradation`` renders the clean-vs-faulted comparison table for
  rows carrying churn/jam/burst_loss options instead.
* ``campaign run-all TARGET [--out-root DIR]`` — run every config named
  by a manifest (or directory of configs) through one fabric run: one
  worker pool, each distinct simulation once, one store per campaign.
* ``store compact PATH`` / ``store merge DEST SRC ...`` — rewrite a
  store to one line per cell / fold other stores into it.
* ``bench [--out PATH] [--quick] [--min-ref-speedup X]`` — run the
  engine microbenchmarks, write them to ``bench_results.json`` (an
  untracked file), and optionally fail if the engine is not fast enough
  (the CI perf-smoke tripwire).

The ``figure1``, ``table1``, ``ablations``, and ``campaign``
subcommands share one execution-options group
(``--contention-hist``/``--no-contention-hist`` and the fault specs
``--churn``/``--jam``/``--burst-loss``), generated from the
:class:`repro.sim.config.ExecutionConfig` field schema.  Precedence is
CLI > cell options > defaults; on campaigns the flags become part of
each cell's content-hash identity (pass the same flags to
``status``/``report``), except that explicit default values normalize
away and alias the flag-free cells.  Every subcommand runs on the
serial engine with the bitmask backend; the ``resolution`` and
``lockstep`` fields are for library callers of
:func:`repro.sim.batch.run_trials`, and ``--resolution`` or
``--lockstep`` is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import List, Optional

from repro.campaign.runner import RunnerOptions, add_runner_args
from repro.sim.config import (
    add_execution_args,
    config_from_args,
    execution_overrides,
    normalize_execution_options,
)

__all__ = ["main"]

#: ``repro table1``'s default rows: the rows of ``configs/table1.json``,
#: in its order.
TABLE1_ROWS = (
    "local", "nocd", "dtime", "bounded", "cd", "cd-optimal",
    "det-local", "det-cd", "path", "decay", "lb-path", "lb-reduction",
)

#: ``repro ablations``' row entries: those of ``configs/ablations.json``.
ABLATION_ROWS = (
    {"row": "abl-probe"},
    {"row": "abl-noprobe"},
    {"row": "abl-ps-thm11"},
    {"row": "abl-ps-thm12"},
    {"row": "abl-beta", "options": {"beta": 0.15}},
    {"row": "abl-beta", "options": {"beta": 0.3}},
    {"row": "abl-beta", "options": {"beta": 0.6}},
)


def _cmd_figure1(args) -> int:
    from repro.experiments import figure1

    if args.n < 1:
        print("--n must be >= 1")
        return 2
    # Every flag the subcommand exposes is honorable (unusable ones are
    # excluded from its parser), so runtime errors keep their tracebacks.
    print(figure1(
        n=args.n, seed=args.seed, exec_config=config_from_args(args)
    ))
    return 0


def _finite_positive(value: float) -> bool:
    """True for a float flag's usable values (False for nan too)."""
    return 0 < value < math.inf


def _cmd_table1(args) -> int:
    from repro.campaign.registry import ROW_REGISTRY, scaled_sizes

    rows = args.rows or list(TABLE1_ROWS)
    unknown = [row for row in rows if row not in ROW_REGISTRY]
    if unknown:
        print(f"unknown rows: {unknown}; available: {sorted(ROW_REGISTRY)}")
        return 2
    if args.seeds is not None and args.seeds < 1:
        print("--seeds must be >= 1")
        return 2
    if args.sizes_scale is not None and not _finite_positive(args.sizes_scale):
        print("--sizes-scale must be a finite number > 0")
        return 2
    entries = []
    for row in rows:
        entry = {"row": row}
        if args.seeds is not None:
            entry["seeds"] = list(range(args.seeds))
        if args.sizes_scale is not None:
            entry["sizes"] = list(scaled_sizes(row, args.sizes_scale))
        entries.append(entry)
    return _run_rows("table1", entries, args)


def _cmd_ablations(args) -> int:
    return _run_rows("ablations", ABLATION_ROWS, args)


def _run_rows(name: str, entries, args) -> int:
    """Run row entries as an in-memory campaign and print its report.

    The campaign runs serially into a store in a temporary directory,
    so the printed tables are exactly what ``campaign report`` prints
    for a config listing the same entries.  Exits 2 on a bad row or
    option, and 1 (with the run summary) if any cell failed.
    """
    import tempfile

    from repro.campaign import (
        CampaignSpec,
        CampaignStore,
        render_report,
        run_campaign,
    )

    try:
        spec = CampaignSpec.from_dict({"name": name, "rows": entries})
        _apply_execution_flags(spec, args)
    except ValueError as exc:
        print(exc)
        return 2
    with tempfile.TemporaryDirectory() as out:
        store = CampaignStore(os.path.join(out, "results.jsonl"))
        report = run_campaign(spec, store)
        if not report.all_ok:
            print(report.summary())
            print()
        print(render_report(spec, store))
    return 0 if report.all_ok else 1


def _apply_execution_flags(spec, args) -> None:
    """Inject the CLI's execution flags into every row, then validate.

    CLI beats cell options beats defaults.  Execution options are part
    of a cell's content-hash identity, so pass the same flags to
    status/report when inspecting a campaign that ran with them;
    normalization keeps explicit defaults aliased to the flag-free
    identity.  Raises ``ValueError`` naming the row on a bad option.
    """
    overrides = execution_overrides(args)
    if overrides:
        for plan in spec.rows:
            try:
                plan.options = normalize_execution_options(
                    {**plan.options, **overrides}
                )
            except ValueError as exc:
                raise ValueError(
                    f"row {plan.row!r} has a bad execution option: {exc}"
                ) from None
    spec.validate()


class _ConfigError(Exception):
    pass


def _campaign_store(args):
    import json

    from repro.campaign import CampaignSpec, CampaignStore

    try:
        spec = CampaignSpec.from_json_file(args.config)
        _apply_execution_flags(spec, args)
    except FileNotFoundError:
        raise _ConfigError(f"config not found: {args.config}")
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"config is not valid JSON: {args.config}: {exc}")
    except ValueError as exc:
        raise _ConfigError(f"bad campaign config {args.config}: {exc}")
    out = args.out or os.path.join("campaigns", spec.name)
    return spec, CampaignStore(os.path.join(out, "results.jsonl"))


def _campaign_command(fn):
    def wrapped(args) -> int:
        try:
            return fn(args)
        except _ConfigError as exc:
            print(exc)
            return 2

    return wrapped


def _runner_options(args) -> RunnerOptions:
    """The runner flags, checked before anything runs: a bad value
    exits 2 with a one-line message."""
    try:
        return RunnerOptions.given(**{
            spec.name: getattr(args, spec.name)
            for spec in dataclasses.fields(RunnerOptions)
        })
    except ValueError as exc:
        raise _ConfigError(f"bad runner flag: {exc}") from None


def _engages_fabric(args) -> bool:
    """Any of ``--workers``/``--retries``/``--heartbeat`` engages the
    fault-tolerant fabric; ``--timeout`` alone does not."""
    return any(
        getattr(args, name) is not None
        for name in ("workers", "retries", "heartbeat")
    )


def _events_path(store) -> str:
    """The fabric events ledger lives beside the campaign store."""
    return os.path.join(
        os.path.dirname(store.path) or ".", "events.jsonl"
    )


@_campaign_command
def _cmd_campaign_run(args) -> int:
    from repro.campaign import render_report, run_campaign, run_campaign_fabric

    options = _runner_options(args)
    spec, store = _campaign_store(args)
    if _engages_fabric(args):
        # The plain serial path below stays the differential oracle the
        # fabric is tested against (tests/test_fabric.py).
        report = run_campaign_fabric(
            spec, store, progress=print, events_path=_events_path(store),
            **dataclasses.asdict(options),
        )
    else:
        report = run_campaign(
            spec, store, timeout=options.timeout, progress=print
        )
    print(report.summary())
    print()
    print(render_report(spec, store))
    return 0 if report.all_ok else 1


@_campaign_command
def _cmd_campaign_status(args) -> int:
    from repro.campaign import render_status

    if not _finite_positive(args.interval):
        print("--interval must be a finite number > 0")
        return 2
    spec, store = _campaign_store(args)
    if args.watch:
        from repro.campaign.fabric import watch_campaign

        watch_campaign(
            spec, store, _events_path(store), interval=args.interval
        )
    else:
        print(render_status(spec, store))
    return 0


@_campaign_command
def _cmd_campaign_report(args) -> int:
    from repro.campaign import render_report

    spec, store = _campaign_store(args)
    if args.degradation:
        from repro.campaign import render_degradation

        print(render_degradation(spec, store))
    else:
        print(render_report(spec, store))
    if args.events:
        from repro.campaign.fabric import (
            read_events,
            render_events_summary,
            summarize_events,
        )

        print()
        print(render_events_summary(
            summarize_events(read_events(_events_path(store)))
        ))
    return 0


@_campaign_command
def _cmd_campaign_run_all(args) -> int:
    from repro.campaign import CampaignStore, run_campaigns_fabric
    from repro.campaign.fabric import load_campaigns, resolve_run_all

    options = _runner_options(args)
    try:
        name, configs = resolve_run_all(args.target)
        campaigns, bad = load_campaigns(configs)
    except ValueError as exc:
        print(exc)
        return 2
    print(f"run-all {name!r}: {len(configs)} campaign(s)")
    for path, error in bad:
        print(f"  {path}: bad config: {error}")
    runs = []
    for path, spec in campaigns:
        out = os.path.join(args.out_root, spec.name)
        store = CampaignStore(os.path.join(out, "results.jsonl"))
        print(f"== {spec.name} ({path}) -> {out}")
        runs.append((spec, store, _events_path(store)))
    # One pool for every campaign: cells that are the same simulation
    # run once, and each campaign's store still gets its own records.
    reports = run_campaigns_fabric(
        runs, progress=print, **dataclasses.asdict(options)
    )
    failures = [path for path, _ in bad]
    for (path, spec), report in zip(campaigns, reports):
        print(f"{spec.name}: {report.summary()}")
        if not report.all_ok:
            failures.append(path)
    status = "all ok" if not failures else f"{len(failures)} failed"
    print(f"run-all {name!r}: {len(configs)} campaign(s), {status}")
    return 1 if failures else 0


def _store_path(target: str) -> str:
    """Accept a store file or its campaign directory."""
    if os.path.isdir(target):
        return os.path.join(target, "results.jsonl")
    return target


def _cmd_store_compact(args) -> int:
    from repro.campaign import CampaignStore

    store = CampaignStore(_store_path(args.store))
    if not os.path.exists(store.path):
        print(f"store not found: {store.path}")
        return 2
    stats = store.compact()
    print(
        f"compacted {store.path}: {stats['before']} -> "
        f"{stats['after']} line(s)"
    )
    return 0


def _cmd_store_merge(args) -> int:
    from repro.campaign import CampaignStore

    dest = CampaignStore(_store_path(args.dest))
    sources = [_store_path(src) for src in args.sources]
    missing = [src for src in sources if not os.path.exists(src)]
    if missing:
        print(f"source store(s) not found: {missing}")
        return 2
    merged = dest.load()
    before = len(merged)
    for src in sources:
        for key, record in CampaignStore(src).load().items():
            # Never let an error record shadow an ok one; otherwise
            # later sources win.
            current = merged.get(key)
            keep_current = (
                current is not None
                and current.get("status") == "ok"
                and record.get("status") != "ok"
            )
            if not keep_current:
                merged[key] = record
    dest.rewrite(list(merged.values()))
    print(
        f"merged {len(sources)} store(s) into {dest.path}: "
        f"{before} -> {len(merged)} cell(s)"
    )
    return 0


def _cmd_bench(args) -> int:
    from repro.experiments.bench import (
        check_thresholds,
        format_report,
        run_engine_benchmarks,
        write_results,
    )

    if args.seeds < 1:
        print("--seeds must be >= 1")
        return 2
    report = run_engine_benchmarks(quick=args.quick, lockstep_seeds=args.seeds)
    write_results(report, args.out)
    print(format_report(report))
    print(f"wrote {args.out}")
    violations = check_thresholds(
        report,
        min_ref_speedup=args.min_ref_speedup,
        min_numpy_speedup=args.min_numpy_speedup,
        min_lockstep_speedup=args.min_lockstep_speedup,
        min_lossy_soa_speedup=args.min_lossy_soa_speedup,
    )
    for violation in violations:
        print(f"FAIL: {violation}")
    return 1 if violations else 0


def _cmd_demo(args) -> int:
    del args
    from repro.broadcast import decay_broadcast_protocol, run_broadcast
    from repro.broadcast.path import path_broadcast_protocol
    from repro.graphs import path_graph
    from repro.sim import LOCAL, NO_CD, Knowledge

    n = 128
    graph = path_graph(n)
    knowledge = Knowledge(n=n, max_degree=2, diameter=n - 1)
    decay = run_broadcast(
        graph, NO_CD, decay_broadcast_protocol(failure=0.02),
        knowledge=knowledge, seed=1,
    )
    path = run_broadcast(
        graph, LOCAL, path_broadcast_protocol(oriented=True),
        knowledge=knowledge, seed=1,
    )
    print(f"{n}-hop chain broadcast:")
    print(
        f"  decay baseline: delivered={decay.delivered} "
        f"slots={decay.duration} worst-energy={decay.max_energy}"
    )
    print(
        f"  Algorithm 1:    delivered={path.delivered} "
        f"slots={path.duration} worst-energy={path.max_energy}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Energy Complexity of Broadcast' (PODC 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Subcommands get only the flags they can honor: figure1's single
    # run has no extras channel for contention_hist, and the beta
    # ablation runs on a bare Simulator (no histogram).
    p_fig = sub.add_parser("figure1", help="render the Figure 1 timeline")
    p_fig.add_argument("--n", type=int, default=32)
    p_fig.add_argument("--seed", type=int, default=0)
    add_execution_args(p_fig, exclude=("contention_hist",))
    p_fig.set_defaults(func=_cmd_figure1)

    p_tab = sub.add_parser("table1", help="run and print Table 1")
    p_tab.add_argument(
        "rows", nargs="*",
        help=f"registry rows to run (default: {', '.join(TABLE1_ROWS)})",
    )
    p_tab.add_argument(
        "--seeds", type=int, default=None,
        help="run each cell with seeds 0..N-1 instead of the row default",
    )
    p_tab.add_argument(
        "--sizes-scale", type=float, default=None,
        help="multiply each row's default sizes by this factor (clamped "
             "to the row's smallest graph)",
    )
    add_execution_args(p_tab)
    p_tab.set_defaults(func=_cmd_table1)

    p_abl = sub.add_parser("ablations", help="run the ablations")
    add_execution_args(p_abl, exclude=("contention_hist",))
    p_abl.set_defaults(func=_cmd_ablations)

    p_bench = sub.add_parser(
        "bench", help="engine microbenchmarks -> bench_results.json"
    )
    p_bench.add_argument(
        "--out", default="bench_results.json",
        help="output JSON path (default: bench_results.json, which git "
             "ignores)",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="small workloads for CI smoke runs",
    )
    p_bench.add_argument(
        "--min-ref-speedup", type=float, default=None,
        help="fail unless every workload beats the reference simulator "
             "by this factor",
    )
    p_bench.add_argument(
        "--min-numpy-speedup", type=float, default=None,
        help="fail unless the numpy resolution backend beats the "
             "bitmask backend by this factor on the backend-gated "
             "workloads (requires numpy)",
    )
    p_bench.add_argument(
        "--min-lockstep-speedup", type=float, default=None,
        help="fail unless the SoA lock-step engine beats the serial "
             "engine, both phase-stepped, by this factor on the "
             "many-seed lockstep_trials workload (requires the SoA path "
             "to be active, i.e. numpy)",
    )
    p_bench.add_argument(
        "--min-lossy-soa-speedup", type=float, default=None,
        help="fail unless the SoA lock-step engine beats the serial "
             "engine, both phase-stepped, by this factor on the per-seed "
             "LossyModel workload lossy_lockstep_trials (requires the "
             "SoA dispatch verdict to be 'ok', i.e. numpy)",
    )
    p_bench.add_argument(
        "--seeds", type=int, default=64,
        help="trial count for the many-seed lockstep_trials and "
             "lossy_lockstep_trials sections (default: 64)",
    )
    # No execution flags: the bench times one fixed runner matrix.
    p_bench.set_defaults(func=_cmd_bench)

    p_demo = sub.add_parser("demo", help="decay vs Algorithm 1 on a chain")
    p_demo.set_defaults(func=_cmd_demo)

    p_camp = sub.add_parser(
        "campaign", help="config-driven, sharded, resumable sweeps"
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    def add_campaign_common(sub_parser):
        sub_parser.add_argument("config", help="campaign JSON config path")
        sub_parser.add_argument(
            "--out", default=None,
            help="results directory (default: campaigns/<name>)",
        )
        # Execution flags are injected into every row's options (CLI >
        # cell options > defaults).  They are part of each cell's
        # content-hash identity, so use the same flags for
        # status/report as for run.
        add_execution_args(sub_parser)

    p_run = camp_sub.add_parser("run", help="execute pending campaign cells")
    add_campaign_common(p_run)
    # --workers/--retries/--heartbeat: any of them engages the fabric
    # runner (persistent workers, retry, quarantine, events).
    add_runner_args(p_run)
    p_run.set_defaults(func=_cmd_campaign_run)

    p_status = camp_sub.add_parser("status", help="per-row cell accounting")
    add_campaign_common(p_status)
    p_status.add_argument(
        "--watch", action="store_true",
        help="live fabric view (throughput, ETA, per-worker state); "
             "refreshes until the run completes",
    )
    p_status.add_argument(
        "--interval", type=float, default=2.0,
        help="--watch refresh interval in seconds (default: 2)",
    )
    p_status.set_defaults(func=_cmd_campaign_status)

    p_report = camp_sub.add_parser("report", help="render tables from the store")
    add_campaign_common(p_report)
    p_report.add_argument(
        "--events", action="store_true",
        help="append the fabric events summary (workers, retries, "
             "quarantines) from the run's events ledger",
    )
    p_report.add_argument(
        "--degradation", action="store_true",
        help="render the fault-degradation table instead: energy/time/"
             "success-rate of faulted rows (churn/jam/burst_loss "
             "options) against their clean twins",
    )
    p_report.set_defaults(func=_cmd_campaign_report)

    p_all = camp_sub.add_parser(
        "run-all",
        help="run every campaign named by a manifest or config directory",
    )
    p_all.add_argument(
        "target",
        help="manifest file, directory of configs (uses run_all.json "
             "when present), or a single campaign config",
    )
    p_all.add_argument(
        "--out-root", default="campaigns",
        help="parent results directory; each campaign gets "
             "<out-root>/<name>/ (default: campaigns)",
    )
    add_runner_args(p_all)
    p_all.set_defaults(func=_cmd_campaign_run_all)

    p_store = sub.add_parser(
        "store", help="maintain campaign result stores"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_compact = store_sub.add_parser(
        "compact", help="rewrite a store to one line per cell"
    )
    p_compact.add_argument(
        "store", help="store file or campaign directory"
    )
    p_compact.set_defaults(func=_cmd_store_compact)

    p_merge = store_sub.add_parser(
        "merge", help="fold source stores into a destination store"
    )
    p_merge.add_argument("dest", help="destination store file or directory")
    p_merge.add_argument(
        "sources", nargs="+", help="source store files or directories"
    )
    p_merge.set_defaults(func=_cmd_store_merge)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
