"""Table 1 reproduction: one experiment per row.

Every function returns (points, rendered_table).  The bound columns are
the paper's claimed asymptotics evaluated at the workload's parameters;
a roughly flat "ratio" column across the sweep is the finite-size
signature of the claimed growth rate.  EXPERIMENTS.md records the runs.

Experiment ids follow DESIGN.md (T1.<model>.<row>).

The sweep-shaped rows are thin serial wrappers over the campaign row
registry (:mod:`repro.campaign.registry`) — graph family, protocol
builder, channel model, bounds, and default matrix all live there, so
``python -m repro table1`` and ``python -m repro campaign run`` cannot
drift apart.  Only the two lower-bound rows keep bespoke code: their
derived-quantity tables (leader-election transcripts, pre-reception
energy) don't fit the SweepPoint shape.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from repro.broadcast import decay_broadcast_protocol, run_broadcast
from repro.broadcast.path import path_broadcast_protocol
from repro.campaign.registry import (
    GRAPH_FAMILIES,
    ROW_REGISTRY,
    get_row,
    resolve_bounds,
)
from repro.experiments.harness import format_table, sweep
from repro.graphs import k2k_gadget, path_graph
from repro.lowerbounds import derive_leader_election, energy_before_reception
from repro.sim import (
    LOCAL,
    NO_CD,
    ExecutionConfig,
    Knowledge,
    validate_execution_options,
)
from repro.sim.config import ExecutionConfigError
from repro.sim.models import MODELS

__all__ = [
    "registry_row",
    "t1_nocd_clustering",
    "t1_nocd_dtime",
    "t1_nocd_bounded_degree",
    "t1_cd_clustering",
    "t1_cd_optimal",
    "t1_local_clustering",
    "t1_lb_local_path",
    "t1_lb_reduction",
    "t1_det_local",
    "t1_det_cd",
    "t8_path_algorithm",
    "baseline_decay",
]


def registry_row(
    name: str,
    sizes: Optional[Sequence[int]] = None,
    seeds: Optional[Sequence[int]] = None,
    options: Optional[Dict] = None,
):
    """Run one registry row serially and render its table.

    The exact computation a campaign shards: same builder, same graph
    family, same bounds — just driven by the in-process ``sweep()``.
    Execution-steering options (the
    :meth:`~repro.sim.config.ExecutionConfig.option_keys` subset of
    ``options``) are honored like the campaign path honors them.
    """
    definition = get_row(name)
    options = options or {}
    # Reject reserved execution fields (record_trace, time_limit, ...)
    # the options dict cannot carry — same contract as the campaign
    # spec door — then extract the cell-option subset.
    validate_execution_options(options)
    config = ExecutionConfig.from_options(options)
    points = sweep(
        name,
        GRAPH_FAMILIES[definition.graph_family],
        sizes if sizes is not None else definition.default_sizes,
        lambda g: definition.builder(g, options),
        MODELS[definition.model],
        seeds=seeds if seeds is not None else definition.default_seeds,
        id_space_from_n=definition.id_space_from_n,
        observer=definition.observer,
        exec_config=config,
    )
    columns = definition.columns
    if options.get("contention_hist"):
        # Surface the analytics ride-along next to the row's own columns
        # (format_table pulls unknown names from each point's extras).
        columns = tuple(columns) + ("ch_mean_load", "ch_collision_rate")
    table = format_table(
        definition.title,
        points,
        columns=columns,
        bounds=resolve_bounds(definition, options),
    )
    return points, table


def _defaults(name: str) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    definition = ROW_REGISTRY[name]
    return definition.default_sizes, definition.default_seeds


# --- upper-bound rows ------------------------------------------------------

_NOCD_SIZES, _NOCD_SEEDS = _defaults("nocd")


def t1_nocd_clustering(sizes: Sequence[int] = _NOCD_SIZES, seeds=_NOCD_SEEDS, options=None):
    """T1.noCD.1 — Theorem 11: O(n logD log^2 n) time, O(logD log^2 n)
    energy in No-CD (logD = log Delta)."""
    return registry_row("nocd", sizes, seeds, options)


_DTIME_SIZES, _DTIME_SEEDS = _defaults("dtime")


def t1_nocd_dtime(sizes: Sequence[int] = _DTIME_SIZES, seeds=_DTIME_SEEDS, options=None):
    """T1.noCD.2 — Theorem 16: O(D^{1+eps} polylog) time, polylog energy."""
    return registry_row("dtime", sizes, seeds, options)


_BOUNDED_SIZES, _BOUNDED_SEEDS = _defaults("bounded")


def t1_nocd_bounded_degree(
    sizes: Sequence[int] = _BOUNDED_SIZES, seeds=_BOUNDED_SEEDS, options=None
):
    """T1.noCD.3 — Corollary 13: Delta = O(1): O(n log n) time,
    O(log n) energy via LOCAL simulation."""
    return registry_row("bounded", sizes, seeds, options)


_CD_SIZES, _CD_SEEDS = _defaults("cd")


def t1_cd_clustering(
    sizes: Sequence[int] = _CD_SIZES, seeds=_CD_SEEDS, epsilon=0.5, options=None
):
    """T1.CD.1 — Theorem 12: O(log^2 n / (eps loglog n)) energy in CD."""
    return registry_row("cd", sizes, seeds, {"epsilon": epsilon, **(options or {})})


_CDOPT_SIZES, _CDOPT_SEEDS = _defaults("cd-optimal")


def t1_cd_optimal(sizes: Sequence[int] = _CDOPT_SIZES, seeds=_CDOPT_SEEDS, options=None):
    """T1.CD.2 — Theorem 20: O(log n loglogD / logloglogD) energy,
    O(Delta n^{1+xi}) time."""
    return registry_row("cd-optimal", sizes, seeds, options)


_LOCAL_SIZES, _LOCAL_SEEDS = _defaults("local")


def t1_local_clustering(sizes: Sequence[int] = _LOCAL_SIZES, seeds=_LOCAL_SEEDS, options=None):
    """T1.LOCAL.1 — Theorem 11 LOCAL row: O(n log n) time, O(log n) energy."""
    return registry_row("local", sizes, seeds, options)


_DETLOCAL_SIZES, _DETLOCAL_SEEDS = _defaults("det-local")


def t1_det_local(sizes: Sequence[int] = _DETLOCAL_SIZES, seeds=_DETLOCAL_SEEDS, options=None):
    """T1.det.LOCAL — Theorem 25: O(n log n log N) time,
    O(log n log N) energy, deterministic."""
    return registry_row("det-local", sizes, seeds, options)


_DETCD_SIZES, _DETCD_SEEDS = _defaults("det-cd")


def t1_det_cd(sizes: Sequence[int] = _DETCD_SIZES, seeds=_DETCD_SEEDS, options=None):
    """T1.det.CD — Theorem 27: O(N^2 n log n log N) time,
    O(log^3 N log n) energy, deterministic."""
    return registry_row("det-cd", sizes, seeds, options)


_PATH_SIZES, _PATH_SEEDS = _defaults("path")


def t8_path_algorithm(sizes: Sequence[int] = _PATH_SIZES, seeds=_PATH_SEEDS, options=None):
    """Theorem 21 — the path algorithm: time <= 2n, expected per-vertex
    energy O(log n) (we report the mean-energy column)."""
    return registry_row("path", sizes, seeds, options)


_DECAY_SIZES, _DECAY_SEEDS = _defaults("decay")


def baseline_decay(sizes: Sequence[int] = _DECAY_SIZES, seeds=_DECAY_SEEDS, options=None):
    """The motivating contrast: BGI decay is time-lean but its energy
    grows ~ linearly in D (every uninformed vertex listens non-stop)."""
    return registry_row("decay", sizes, seeds, options)


# --- lower-bound rows ------------------------------------------------------


def _lb_exec_config(options: Optional[Dict]) -> ExecutionConfig:
    """Execution config for the bespoke lower-bound runners: honor the
    execution subset of ``options`` (so the shared CLI flags reach these
    rows too); tracing is always on — the derived quantities need it."""
    validate_execution_options(options)
    config = ExecutionConfig.from_options(options or {})
    if config.contention_hist:
        # Reject before any work: these runners build bespoke tables
        # with no extras channel to fold the histogram into.  (The
        # registry-backed lb-path/lb-reduction campaign rows run on
        # run_cells and DO honor it.)
        raise ExecutionConfigError(
            "the bespoke lower-bound runners have no extras channel for "
            "contention_hist; use the campaign rows (lb-path/lb-reduction) "
            "instead"
        )
    return config.replace(record_trace=True)


def t1_lb_local_path(
    sizes: Sequence[int] = (64, 256, 1024), seeds=(0, 1, 2, 3, 4),
    options: Optional[Dict] = None,
) -> Tuple[List[Dict], str]:
    """T1.LOCAL.LB / Theorem 1: worst pre-reception energy is
    Omega(log n) on the path; measured on the (optimal) path algorithm it
    is sandwiched into Theta(log n)."""
    config = _lb_exec_config(options)
    rows = []
    for n in sizes:
        graph = path_graph(n)
        knowledge = Knowledge(n=n, max_degree=2, diameter=n - 1)
        worst = []
        for seed in seeds:
            outcome = run_broadcast(
                graph, LOCAL, path_broadcast_protocol(oriented=True),
                knowledge=knowledge, seed=seed, exec_config=config,
            )
            worst.append(energy_before_reception(outcome).worst)
        rows.append({
            "n": n,
            "lower_bound": math.log2(n) / 5,
            "measured_median": statistics.median(worst),
            "satisfied": statistics.median(worst) >= math.log2(n) / 5,
        })
    lines = ["T1.LOCAL.LB  Theorem 1: worst pre-reception energy vs (1/5) log2 n"]
    lines.append(f"{'n':>6}  {'(1/5)log2 n':>12}  {'measured':>9}  ok")
    for row in rows:
        lines.append(
            f"{row['n']:>6}  {row['lower_bound']:>12.2f}  "
            f"{row['measured_median']:>9.1f}  {row['satisfied']}"
        )
    return rows, "\n".join(lines)


def t1_lb_reduction(
    ks: Sequence[int] = (2, 4, 8, 16),
    seeds=(0, 1, 2),
    model=NO_CD,
    protocol_builder=None,
    options: Optional[Dict] = None,
) -> Tuple[List[Dict], str]:
    """T1.noCD.LB / T1.CD.LB / Theorem 2: execute the reduction on
    K_{2,k}; report derived-LE time vs 2E and verify the inequality.

    ``protocol_builder(graph)`` defaults to the decay baseline; pass any
    broadcast protocol factory builder to reduce a different algorithm.
    """
    config = _lb_exec_config(options)
    if protocol_builder is None:
        protocol_builder = lambda g: decay_broadcast_protocol(failure=0.01)
    rows = []
    for k in ks:
        graph, s, t = k2k_gadget(k)
        knowledge = Knowledge(n=graph.n, max_degree=graph.max_degree, diameter=2)
        le_times, energies, holds = [], [], True
        for seed in seeds:
            outcome = run_broadcast(
                graph, model, protocol_builder(graph),
                source=s, knowledge=knowledge, seed=seed, exec_config=config,
            )
            report = derive_leader_election(outcome, s, t)
            le_times.append(report.le_time)
            energies.append(report.broadcast_energy)
            holds = holds and report.bound_holds
        rows.append({
            "k": k,
            "le_time_median": statistics.median(le_times),
            "energy_median": statistics.median(energies),
            "inequality_holds": holds,
        })
    lines = ["T1.*.LB  Theorem 2 reduction on K_{2,k}: T_LE <= 2E"]
    lines.append(f"{'k':>4}  {'T_LE':>7}  {'E':>7}  {'T_LE <= 2E':>10}")
    for row in rows:
        lines.append(
            f"{row['k']:>4}  {row['le_time_median']:>7.1f}  "
            f"{row['energy_median']:>7.1f}  {str(row['inequality_holds']):>10}"
        )
    return rows, "\n".join(lines)


# Cheap pre-flight validators: the CLI calls these for every selected
# row BEFORE any row runs, so an execution flag a bespoke runner cannot
# honor fails in milliseconds instead of after earlier rows completed.
# Registry-backed rows need none — they honor the full cell-option set.
t1_lb_local_path.validate_exec_options = _lb_exec_config
t1_lb_reduction.validate_exec_options = _lb_exec_config
