"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figure1 [--n N] [--seed S]`` — render the Figure 1 timeline.
* ``table1 [ROW ...] [--seeds N] [--sizes-scale F]`` — run Table 1 row
  experiments serially (default: all rows).
* ``ablations`` — run the three ablations.
* ``demo`` — the quickstart comparison on a 128-hop chain.
* ``campaign run CONFIG [--workers N] [--retries K] [--heartbeat S]
  [--out DIR] [--timeout S]`` — execute a declarative sweep campaign
  with results cached in an append-only store (re-runs compute only the
  delta).  ``--workers`` engages the fault-tolerant fabric: persistent
  worker processes, per-worker result shards, retry with backoff,
  poison-block quarantine, and a live events ledger.  Without a fabric
  flag the campaign runs serially in-process, the differential oracle.
* ``campaign status CONFIG [--out DIR] [--watch] [--interval S]`` —
  per-row completion accounting; ``--watch`` adds the live fabric view
  (throughput, ETA, per-worker state) replayed from the events ledger.
* ``campaign report CONFIG [--out DIR] [--events] [--degradation]`` —
  render Table-1-style tables from the store; ``--events`` appends the
  fabric events summary (per-worker tallies, retries, quarantines);
  ``--degradation`` renders the clean-vs-faulted comparison table for
  rows carrying churn/jam/burst_loss options instead.
* ``campaign run-all TARGET [--out-root DIR]`` — run every config named
  by a manifest (or directory of configs) through the fabric, one store
  per campaign.
* ``store compact PATH`` / ``store merge DEST SRC ...`` — rewrite a
  store to one line per cell / fold other stores (or leftover worker
  shards) into it.
* ``bench [--out PATH] [--quick] [--min-ref-speedup X]`` — run the
  engine microbenchmarks, write them to ``bench_results.json`` (an
  untracked file; the committed ``BENCH_engine.json`` is history), and
  optionally fail if the engine is not fast enough (the CI perf-smoke
  tripwire).

The ``figure1``, ``table1``, ``ablations``, and ``campaign``
subcommands share one execution-options group (``--resolution``,
``--lockstep``/``--no-lockstep``,
``--contention-hist``/``--no-contention-hist``, and the fault specs
``--churn``/``--jam``/``--burst-loss``), generated from the
:class:`repro.sim.config.ExecutionConfig` field schema.  Precedence is
CLI > cell options > defaults; on campaigns the flags become part of
each cell's content-hash identity (pass the same flags to
``status``/``report``), except that explicit default values normalize
away and alias the flag-free cells.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from typing import List, Optional

from repro.sim.config import (
    ExecutionConfigError,
    add_execution_args,
    add_runner_args,
    config_from_args,
    execution_overrides,
    normalize_execution_options,
    runner_overrides,
)

__all__ = ["main"]

_TABLE1_ROWS = {
    "local": "t1_local_clustering",
    "nocd": "t1_nocd_clustering",
    "dtime": "t1_nocd_dtime",
    "bounded": "t1_nocd_bounded_degree",
    "cd": "t1_cd_clustering",
    "cd-optimal": "t1_cd_optimal",
    "det-local": "t1_det_local",
    "det-cd": "t1_det_cd",
    "path": "t8_path_algorithm",
    "decay": "baseline_decay",
    "lb-path": "t1_lb_local_path",
    "lb-reduction": "t1_lb_reduction",
}


def _cmd_figure1(args) -> int:
    from repro.experiments import figure1

    # Every flag the subcommand exposes is honorable (unusable ones are
    # excluded from its parser), so runtime errors keep their tracebacks.
    print(figure1(
        n=args.n, seed=args.seed, exec_config=config_from_args(args)
    ))
    return 0


def _row_overrides(
    fn,
    seeds: Optional[int],
    sizes_scale: Optional[float],
    exec_options: Optional[dict] = None,
    min_size: int = 2,
):
    """kwargs rescaling a Table 1 runner's default workload.

    ``--seeds N`` replaces the seed tuple with ``range(N)``;
    ``--sizes-scale F`` multiplies the row's default sizes (the lower
    bound rows call them ``ks``) by F, clamped to >= ``min_size`` — the
    row's graph family's real minimum (a cycle needs n >= 3, so a blind
    min-2 clamp would crash cycle rows at small scales);
    ``exec_options`` (the shared execution flags — ``--resolution``,
    ``--lockstep``, ``--contention-hist``, the fault specs) ride into
    the row's ``options`` dict for rows that accept options (the
    registry-backed sweeps).
    """
    parameters = inspect.signature(fn).parameters
    kwargs = {}
    if seeds is not None and "seeds" in parameters:
        kwargs["seeds"] = tuple(range(seeds))
    if exec_options and "options" in parameters:
        kwargs["options"] = dict(exec_options)
    if sizes_scale is not None:
        for name in ("sizes", "ks"):
            default = getattr(parameters.get(name), "default", None)
            if default is not None:
                scaled = [
                    max(min_size, int(round(size * sizes_scale)))
                    for size in default
                ]
                # The min-clamp can collapse small sizes onto each other;
                # drop duplicates but keep the sweep order.
                kwargs[name] = tuple(dict.fromkeys(scaled))
                break
    return kwargs


def _cmd_table1(args) -> int:
    import repro.experiments as experiments

    rows = args.rows or list(_TABLE1_ROWS)
    unknown = [row for row in rows if row not in _TABLE1_ROWS]
    if unknown:
        print(f"unknown rows: {unknown}; available: {sorted(_TABLE1_ROWS)}")
        return 2
    if args.seeds is not None and args.seeds < 1:
        print("--seeds must be >= 1")
        return 2
    if args.sizes_scale is not None and args.sizes_scale <= 0:
        print("--sizes-scale must be > 0")
        return 2
    exec_options = execution_overrides(args)
    if exec_options:
        # Pre-flight: reject a flag some selected row cannot honor
        # before ANY row runs (the bespoke lower-bound runners publish
        # a cheap validator; registry rows honor the full option set).
        for row in rows:
            fn = getattr(experiments, _TABLE1_ROWS[row])
            validator = getattr(fn, "validate_exec_options", None)
            if validator is None:
                continue
            try:
                validator(exec_options)
            except ExecutionConfigError as exc:
                print(f"row {row!r}: {exc}")
                return 2
    from repro.campaign.registry import ROW_REGISTRY, row_min_size

    for row in rows:
        fn = getattr(experiments, _TABLE1_ROWS[row])
        min_size = row_min_size(row) if row in ROW_REGISTRY else 2
        try:
            _, table = fn(**_row_overrides(
                fn, args.seeds, args.sizes_scale, exec_options, min_size
            ))
        except ExecutionConfigError as exc:
            # e.g. --contention-hist on a bespoke lower-bound row: the
            # layer that cannot honor the option refuses loudly.  Only
            # *configuration* errors get the one-line treatment; genuine
            # runtime ValueErrors keep their tracebacks.
            print(f"row {row!r}: {exc}")
            return 2
        print(table)
        print()
    return 0


class _ConfigError(Exception):
    pass


def _campaign_store(args):
    import json

    from repro.campaign import CampaignSpec, CampaignStore

    try:
        spec = CampaignSpec.from_json_file(args.config)
        overrides = execution_overrides(args)
        if overrides:
            # CLI beats cell options beats defaults.  Execution options
            # are part of a cell's content-hash identity, so pass the
            # same flags to status/report when inspecting a campaign
            # that ran with them; normalization keeps explicit defaults
            # aliased to the flag-free identity.
            for plan in spec.rows:
                plan.options = normalize_execution_options(
                    {**plan.options, **overrides}
                )
        spec.validate()
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


def _events_path(store) -> str:
    """The fabric events ledger lives beside the campaign store."""
    return os.path.join(
        os.path.dirname(store.path) or ".", "events.jsonl"
    )


@_campaign_command
def _cmd_campaign_run(args) -> int:
    from repro.campaign import render_report, run_campaign, run_campaign_fabric

    spec, store = _campaign_store(args)
    fabric = runner_overrides(args)
    if fabric:
        # Any fabric flag engages the fault-tolerant runner; the plain
        # serial path below stays the differential oracle it is tested
        # against (tests/test_fabric.py).
        report = run_campaign_fabric(
            spec, store, timeout=args.timeout, progress=print,
            events_path=_events_path(store), **fabric,
        )
    else:
        report = run_campaign(
            spec, store, timeout=args.timeout, progress=print
        )
    print(report.summary())
    print()
    print(render_report(spec, store))
    return 0 if report.all_ok else 1


@_campaign_command
def _cmd_campaign_status(args) -> int:
    from repro.campaign import render_status
    from repro.campaign.fabric import watch_campaign

    spec, store = _campaign_store(args)
    if args.watch:
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


def _cmd_campaign_run_all(args) -> int:
    from repro.campaign import CampaignSpec, CampaignStore, run_campaign_fabric
    from repro.campaign.fabric import resolve_run_all

    try:
        name, configs = resolve_run_all(args.target)
    except ValueError as exc:
        print(exc)
        return 2
    fabric = runner_overrides(args)
    print(f"run-all {name!r}: {len(configs)} campaign(s)")
    failures = []
    for path in configs:
        try:
            spec = CampaignSpec.from_json_file(path)
            spec.validate()
        except (OSError, ValueError) as exc:
            print(f"  {path}: bad config: {exc}")
            failures.append(path)
            continue
        out = os.path.join(args.out_root, spec.name)
        store = CampaignStore(os.path.join(out, "results.jsonl"))
        print(f"== {spec.name} ({path}) -> {out}")
        report = run_campaign_fabric(
            spec, store, timeout=args.timeout, progress=print,
            events_path=_events_path(store), **fabric,
        )
        print(report.summary())
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
            # Same rule as the fabric shard merge: never let an error
            # record shadow an ok one; otherwise later sources win.
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

    report = run_engine_benchmarks(quick=args.quick, lockstep_seeds=args.seeds)
    write_results(report, args.out)
    print(format_report(report))
    print(f"wrote {args.out}")
    violations = check_thresholds(
        report,
        min_ref_speedup=args.min_ref_speedup,
        min_numpy_speedup=args.min_numpy_speedup,
        min_phase_speedup=args.min_phase_speedup,
        min_lockstep_speedup=args.min_lockstep_speedup,
        min_lossy_soa_speedup=args.min_lossy_soa_speedup,
    )
    for violation in violations:
        print(f"FAIL: {violation}")
    return 1 if violations else 0


def _cmd_ablations(args) -> int:
    from repro.experiments import ablate_beta, ablate_probe, ablate_ps

    # Unusable flags are excluded from this subcommand's parser, so
    # whatever arrives here is honorable by every ablation.
    exec_config = config_from_args(args)
    for fn in (ablate_probe, ablate_ps, ablate_beta):
        _, table = fn(exec_config=exec_config)
        print(table)
        print()
    return 0


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

    # Single-run subcommands get only the flags they can honor:
    # contention_hist needs the cells layer's extras channel, and the
    # beta ablation runs on a bare (serial) Simulator.
    p_fig = sub.add_parser("figure1", help="render the Figure 1 timeline")
    p_fig.add_argument("--n", type=int, default=32)
    p_fig.add_argument("--seed", type=int, default=0)
    add_execution_args(p_fig, exclude=("contention_hist",))
    p_fig.set_defaults(func=_cmd_figure1)

    p_tab = sub.add_parser("table1", help="run Table 1 row experiments")
    p_tab.add_argument(
        "rows", nargs="*", help=f"rows to run ({', '.join(sorted(_TABLE1_ROWS))})"
    )
    p_tab.add_argument(
        "--seeds", type=int, default=None,
        help="run each cell with seeds 0..N-1 instead of the row default",
    )
    p_tab.add_argument(
        "--sizes-scale", type=float, default=None,
        help="multiply each row's default sizes by this factor (min 2)",
    )
    add_execution_args(p_tab)
    p_tab.set_defaults(func=_cmd_table1)

    p_abl = sub.add_parser("ablations", help="run the ablations")
    add_execution_args(p_abl, exclude=("contention_hist", "lockstep"))
    p_abl.set_defaults(func=_cmd_ablations)

    p_bench = sub.add_parser(
        "bench", help="engine microbenchmarks -> bench_results.json"
    )
    p_bench.add_argument(
        "--out", default="bench_results.json",
        help="output JSON path (default: bench_results.json, which git "
             "ignores; the committed BENCH_engine.json is history)",
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
        "--min-phase-speedup", type=float, default=None,
        help="fail unless phase-compiled stepping beats the per-slot "
             "path end-to-end by this factor on the phase-gated "
             "workloads",
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
        help="fail unless the vectorized lossy-channel SoA path beats "
             "the serial oracle by this factor on the per-seed "
             "LossyModel workload (lossy_sr_frame_n256; requires the "
             "SoA dispatch verdict to be 'ok', i.e. numpy)",
    )
    p_bench.add_argument(
        "--seeds", type=int, default=64,
        help="trial count for the many-seed lockstep_trials section "
             "(default: 64)",
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
    p_run.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock budget in seconds",
    )
    # --workers/--retries/--heartbeat: any of them engages the fabric
    # runner (persistent workers, shards, retry, quarantine, events).
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
    p_all.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock budget in seconds",
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
