"""The campaign row registry: row names -> runnable cell definitions.

Each :class:`RowDefinition` packages everything needed to execute one
cell of a Table 1 row or ablation — graph family, channel model,
protocol builder, per-row defaults, and report metadata (bounds for
the flat-ratio check, columns).  Campaign configs refer to rows by
name only, so :class:`~repro.campaign.spec.JobSpec` stays a plain
picklable/JSON-able record and multiprocessing workers re-resolve the
definition by importing this module.

The rows are the one definition of every table the repo prints:
``configs/table1.json``, ``configs/ablations.json`` and
``configs/figure1.json`` list them, and ``repro table1`` and ``repro
ablations`` run the same rows through the campaign runner.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.broadcast import (
    ClusterBroadcastParams,
    cluster_broadcast_protocol,
    decay_broadcast_protocol,
    theorem11_params,
    theorem12_params,
)
from repro.broadcast.cd_optimal import CDOptimalParams, cd_optimal_broadcast_protocol
from repro.broadcast.deterministic import (
    det_cd_broadcast_protocol,
    det_local_broadcast_protocol,
)
from repro.broadcast.dtime import DTimeParams, dtime_broadcast_protocol
from repro.broadcast.local_sim import local_sim_broadcast_protocol
from repro.broadcast.path import path_broadcast_protocol
from repro.campaign.cells import CellResult, run_fused_cells
from repro.sim.config import (
    ExecutionConfig,
    ExecutionConfigError,
    normalize_execution_options,
    validate_execution_options,
)
from repro.graphs import (
    cycle_graph,
    grid_graph,
    k2k_gadget,
    path_graph,
    random_gnp,
)
from repro.graphs.graph import Graph
from repro.lowerbounds import LeaderElectionObserver, PreReceptionObserver
from repro.sim.models import MODELS, LossyModel
from repro.sim.observers import SlotObserver

__all__ = [
    "RowDefinition",
    "ROW_REGISTRY",
    "GRAPH_FAMILIES",
    "GRAPH_FAMILY_MIN_SIZES",
    "get_row",
    "register_row",
    "resolve_bounds",
    "row_min_size",
    "scaled_sizes",
    "check_row_supports_options",
    "simulation_key",
    "execute_cell_block",
    "execute_fused_block",
]

_GNP_P = 0.3


def _gnp(n: int) -> Graph:
    return random_gnp(n, _GNP_P, random.Random(n), ensure_connected=True)


def _grid_square(n: int) -> Graph:
    side = int(round(math.sqrt(n)))
    return grid_graph(side, side)


def _k2k(k: int) -> Graph:
    graph, _, _ = k2k_gadget(k)
    return graph


GRAPH_FAMILIES: Dict[str, Callable[[int], Graph]] = {
    "gnp": _gnp,
    "path": path_graph,
    "cycle": cycle_graph,
    "grid-square": _grid_square,
    "k2k": _k2k,
}

#: Smallest size each family's constructor accepts (a cycle needs three
#: vertices; everything else runs from two).  Size-rescaling callers
#: (``table1 --sizes-scale``) clamp to this instead of a blanket 2, so
#: cycle rows scale down without crashing in ``cycle_graph``.
GRAPH_FAMILY_MIN_SIZES: Dict[str, int] = {
    "gnp": 2,
    "path": 2,
    "cycle": 3,
    "grid-square": 2,
    "k2k": 2,
}


def row_min_size(name: str) -> int:
    """The smallest valid size for a registry row's graph family."""
    return GRAPH_FAMILY_MIN_SIZES.get(get_row(name).graph_family, 2)


def scaled_sizes(name: str, factor: float) -> Tuple[int, ...]:
    """A row's default sizes times ``factor``: rounded, clamped to
    :func:`row_min_size`, and deduplicated in order (the clamp can
    collapse small sizes onto each other)."""
    low = row_min_size(name)
    return tuple(dict.fromkeys(
        max(low, int(round(size * factor)))
        for size in get_row(name).default_sizes
    ))


def _log2(x: float) -> float:
    return math.log2(max(2.0, x))


@dataclass
class RowDefinition:
    """Everything needed to run and report one campaign row.

    ``bounds`` maps column names to bound specs in the format
    :func:`repro.campaign.aggregate.format_table` accepts (a plain
    energy callable or a ``(metric, fn)`` pair); rows whose bound
    depends on an option (e.g. the CD row's epsilon) use a callable
    ``options -> bounds dict`` instead — resolve via
    :func:`resolve_bounds`.

    ``observer`` is the row's per-trial measurement: called with the
    cell's graph, it returns a
    :class:`~repro.sim.observers.SlotObserver` whose ``extras(outcome)``
    become the cell's extras (see :func:`repro.campaign.cells.run_cells`).
    Rows measure during the run; none records a trace.

    Rows that share the ``builder`` object, model, graph family and
    ``id_space_from_n`` are one simulation at a given size and options
    (:func:`simulation_key`): the fabric runs each seed once for all of
    them.  Share a builder only between rows whose protocols are equal.
    """

    name: str
    title: str
    model: str
    graph_family: str
    builder: Callable[[Graph, Dict], Callable]
    default_sizes: Tuple[int, ...]
    default_seeds: Tuple[int, ...]
    id_space_from_n: bool = False
    observer: Optional[Callable[[Graph], SlotObserver]] = None
    bounds: object = field(default_factory=dict)
    columns: Tuple[str, ...] = (
        "n", "max_degree", "diameter", "delivered",
        "time_median", "max_energy_median",
    )
    # Escape hatch for rows that are not a single run_broadcast call
    # (e.g. the beta ablation measures partition statistics directly).
    custom_cell: Optional[Callable[[str, int, int, Dict], CellResult]] = None
    # Execution options this row cannot honor (typically because a
    # custom_cell runs on a bare Simulator).  Campaign validation
    # rejects configs — and CLI-injected flags — that set them, before
    # any cell runs; they would otherwise fail every cell mid-run under
    # a content-hash identity that can never be satisfied.
    unsupported_exec_options: Tuple[str, ...] = ()


def resolve_bounds(definition: RowDefinition, options: Dict) -> Dict:
    if callable(definition.bounds):
        return definition.bounds(options)
    return definition.bounds


ROW_REGISTRY: Dict[str, RowDefinition] = {}


def register_row(definition: RowDefinition) -> RowDefinition:
    ROW_REGISTRY[definition.name] = definition
    return definition


def get_row(name: str) -> RowDefinition:
    try:
        return ROW_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign row {name!r}; available: {sorted(ROW_REGISTRY)}"
        ) from None


def check_row_supports_options(row: str, options: Optional[Dict]) -> None:
    """Raise :class:`ExecutionConfigError` if ``row`` cannot honor an
    execution option actually demanded by ``options``.

    The one honorability door shared by campaign spec validation and
    the worker entry points.  Checked on the *normalized* options: an
    option explicitly set to its default aliases an omitted one and
    therefore demands nothing of the row.  A row with a ``custom_cell``
    also refuses ``loss_rate``: its bespoke cell has no channel-model
    layer to wrap in an erasure channel.
    """
    definition = get_row(row)
    refused = set(definition.unsupported_exec_options)
    if definition.custom_cell is not None:
        refused.add("loss_rate")
    unsupported = sorted(
        set(normalize_execution_options(dict(options or {}))) & refused
    )
    if unsupported:
        raise ExecutionConfigError(
            f"row {row!r} cannot honor execution option(s) {unsupported} "
            f"(it runs a bespoke cell with no layer to consume them); "
            f"drop the option or the row"
        )


def simulation_key(row: str, size: int, options: Dict) -> Optional[Tuple]:
    """What one (row, size) block simulates, or None for a bespoke cell.

    Two blocks with the same key run the same trials seed for seed:
    same channel model, graph family, builder object, id-space rule,
    size and normalized options.  They differ at most in what their
    row observers measure, so :func:`execute_fused_block` runs each
    seed once for both.  Rows share a builder object only where their
    protocols are the same (``path``, ``lb-path`` and ``figure1``;
    ``cd`` and ``abl-ps-thm12``; ``abl-probe``, ``abl-ps-thm11`` and,
    on the K_{2,k} family, ``lb-reduction-cd``).
    A ``custom_cell`` row has no key and never fuses.
    """
    definition = get_row(row)
    if definition.custom_cell is not None:
        return None
    return (
        definition.model,
        definition.graph_family,
        definition.builder,
        definition.id_space_from_n,
        int(size),
        tuple(sorted(normalize_execution_options(dict(options)).items())),
    )


def execute_cell_block(
    row: str, size: int, seeds: Sequence[int], options: Dict
) -> List[CellResult]:
    """Run one (row, size) cell across a *block* of seeds: the
    one-member case of :func:`execute_fused_block`."""
    return execute_fused_block(size, options, [(row, seeds)])[0]


def execute_fused_block(
    size: int, options: Dict, members: Sequence[Tuple[str, Sequence[int]]]
) -> List[List[CellResult]]:
    """Run the ``(row, seeds)`` members that share one
    :func:`simulation_key` as one batch over their seed union.

    The whole block shares one prepared engine via
    :func:`repro.campaign.cells.run_fused_cells`, so a sharded campaign
    worker amortizes graph construction and engine setup, and a seed
    two members ask for runs once; each
    member's cells carry its own row's label and observer extras.
    Execution options (the
    :meth:`~repro.sim.config.ExecutionConfig.option_keys` subset of the
    cell's ``options`` dict — ``contention_hist`` and the fault specs)
    become the block's :class:`~repro.sim.config.ExecutionConfig`; the
    block runs on the serial engine with the bitmask backend.  A row
    with a ``custom_cell`` is always a one-member block and runs seed by
    seed.

    A ``loss_rate`` row option runs the row's protocol under an erasure
    channel: every seed gets its own
    :class:`~repro.sim.models.LossyModel` wrapper (seeded by the trial
    seed, so results are sharding-independent) around the row's model
    via a per-block ``model_factory``.

    Returns one :class:`CellResult` list per member, in member order.
    """
    row = members[0][0]
    definition = get_row(row)
    # Same door policy as CampaignSpec validation: reserved execution
    # fields (record_trace, time_limit, hooks) in an options dict are
    # rejected, never silently dropped — this also covers direct
    # execute_cell_block callers that bypass a spec.
    try:
        validate_execution_options(options)
    except ExecutionConfigError as exc:
        raise ExecutionConfigError(f"row {row!r}: {exc}") from None
    for member, _ in members:
        check_row_supports_options(member, options)
    if len(members) > 1:
        key = simulation_key(row, size, options)
        if key is None or any(
            simulation_key(other, size, options) != key
            for other, _ in members[1:]
        ):
            raise ValueError(
                f"rows {[other for other, _ in members]} do not share one "
                f"simulation at size {size}"
            )
    if definition.custom_cell is not None:
        return [[
            definition.custom_cell(row, size, seed, options)
            for seed in members[0][1]
        ]]
    graph = GRAPH_FAMILIES[definition.graph_family](size)
    config = ExecutionConfig.from_options(options)
    if "loss_rate" in options:
        inner = MODELS[definition.model]
        # Range-checked by validate_execution_options at the door above.
        rate = float(options["loss_rate"])
        config = config.replace(
            model_factory=lambda seed: LossyModel(inner, rate, seed=seed)
        )
    return run_fused_cells(
        graph,
        MODELS[definition.model],
        definition.builder(graph, options),
        [
            (member, tuple(seeds), get_row(member).observer)
            for member, seeds in members
        ],
        size=size,
        id_space_from_n=definition.id_space_from_n,
        exec_config=config,
    )


def _path_builder(g: Graph, o: Dict):
    return path_broadcast_protocol(oriented=True)


def _theorem12_builder(g: Graph, o: Dict):
    return cluster_broadcast_protocol(theorem12_params(
        g.n, epsilon=o.get("epsilon", 0.5), failure=o.get("failure", 0.02)
    ))


def _probe_params(n: int, o: Dict, probe: bool) -> ClusterBroadcastParams:
    base = theorem11_params(n, "CD", failure=o.get("failure", 0.02))
    return ClusterBroadcastParams(
        model_name="CD", survive_p=base.survive_p, spread_s=base.spread_s,
        iterations=base.iterations,
        gl_diameter_bound=base.gl_diameter_bound,
        failure=base.failure, probe=probe,
    )


def _probe_builder(probe: bool):
    def build(g: Graph, o: Dict):
        return cluster_broadcast_protocol(_probe_params(g.n, o, probe))
    return build


# Theorem 11's CD parameters already turn probes on, so this is also
# the abl-ps-thm11 and lb-reduction-cd builder.
_probes_on_builder = _probe_builder(True)


# --- upper-bound rows ------------------------------------------------------


register_row(RowDefinition(
    name="local",
    title="T1.LOCAL.1  Theorem 11 (LOCAL): energy ~ log n, time ~ n log n",
    model="LOCAL",
    graph_family="gnp",
    builder=lambda g, o: cluster_broadcast_protocol(
        theorem11_params(g.n, "LOCAL", failure=o.get("failure", 0.02))
    ),
    default_sizes=(8, 16, 32),
    default_seeds=(0, 1, 2),
    bounds={
        "log n": ("energy", lambda p: _log2(p.n)),
        "nlogn time": ("time", lambda p: p.n * _log2(p.n)),
    },
))

register_row(RowDefinition(
    name="nocd",
    title="T1.noCD.1  Theorem 11 (No-CD): energy ~ log(Delta) log^2 n",
    model="No-CD",
    graph_family="gnp",
    builder=lambda g, o: cluster_broadcast_protocol(
        theorem11_params(g.n, "No-CD", failure=o.get("failure", 0.02))
    ),
    default_sizes=(8, 12, 16),
    default_seeds=(0, 1, 2),
    bounds={
        "logD*log^2n": (
            "energy", lambda p: _log2(p.max_degree) * _log2(p.n) ** 2
        ),
    },
))

register_row(RowDefinition(
    name="dtime",
    title="T1.noCD.2  Theorem 16 (No-CD): polylog energy at growing D",
    model="No-CD",
    graph_family="cycle",
    builder=lambda g, o: dtime_broadcast_protocol(
        lambda n, d: DTimeParams.for_graph(
            n, d, beta=o.get("beta", 0.4), iterations=2,
            contention=2, reps=4, failure=o.get("failure", 0.05),
        )
    ),
    default_sizes=(8, 12, 16),
    default_seeds=(0, 1),
    bounds={"log^4 n": ("energy", lambda p: _log2(p.n) ** 4)},
))

register_row(RowDefinition(
    name="bounded",
    title="T1.noCD.3  Corollary 13 (No-CD, Delta=2): energy ~ log n",
    model="No-CD",
    graph_family="path",
    builder=lambda g, o: local_sim_broadcast_protocol(
        failure=o.get("failure", 0.02)
    ),
    default_sizes=(8, 12, 16),
    default_seeds=(0, 1, 2),
    bounds={"log n": ("energy", lambda p: _log2(p.n))},
))

register_row(RowDefinition(
    name="cd",
    title="T1.CD.1  Theorem 12 (CD): energy ~ log^2 n / (eps loglog n)",
    model="CD",
    graph_family="gnp",
    builder=_theorem12_builder,
    default_sizes=(8, 12, 16),
    default_seeds=(0, 1, 2),
    bounds=lambda o: {
        "log^2n/llog": (
            "energy",
            lambda p: _log2(p.n) ** 2
            / (o.get("epsilon", 0.5) * max(1.0, math.log2(_log2(p.n)))),
        ),
    },
))

register_row(RowDefinition(
    name="cd-optimal",
    title="T1.CD.2  Theorem 20 (CD): energy ~ log n (loglog Delta factors)",
    model="CD",
    graph_family="gnp",
    builder=lambda g, o: cd_optimal_broadcast_protocol(
        CDOptimalParams.for_graph(g.n, g.max_degree, iterations=3, rounds_s=2)
    ),
    default_sizes=(8, 12),
    default_seeds=(0, 1),
    bounds={"log n": ("energy", lambda p: _log2(p.n))},
))

register_row(RowDefinition(
    name="det-local",
    title="T1.det.LOCAL  Theorem 25: energy ~ log n log N",
    model="LOCAL",
    graph_family="cycle",
    builder=lambda g, o: det_local_broadcast_protocol(),
    default_sizes=(6, 8, 12),
    default_seeds=(0,),
    id_space_from_n=True,
    bounds={"logn*logN": ("energy", lambda p: _log2(p.n) ** 2)},
))

register_row(RowDefinition(
    name="det-cd",
    title="T1.det.CD  Theorem 27: energy ~ log^3 N log n",
    model="CD",
    graph_family="cycle",
    builder=lambda g, o: det_cd_broadcast_protocol(),
    default_sizes=(4, 6, 8),
    default_seeds=(0,),
    id_space_from_n=True,
    bounds={"log^3N*logn": ("energy", lambda p: _log2(p.n) ** 4)},
))

register_row(RowDefinition(
    name="path",
    title="Thm 21 (path): mean energy ~ log n, time <= 2n",
    model="LOCAL",
    graph_family="path",
    builder=_path_builder,
    default_sizes=(64, 256, 1024),
    default_seeds=(0, 1, 2, 3),
    columns=(
        "n", "diameter", "delivered", "time_median",
        "max_energy_median", "mean_energy_median",
    ),
    bounds={
        "ln(2n)": ("energy", lambda p: math.log(2 * p.n)),
        "2n time": ("time", lambda p: 2.0 * p.n),
    },
))

register_row(RowDefinition(
    name="decay",
    title="Baseline (BGI decay, No-CD grid): energy ~ D log Delta log n",
    model="No-CD",
    graph_family="grid-square",
    builder=lambda g, o: decay_broadcast_protocol(
        failure=o.get("failure", 0.02)
    ),
    default_sizes=(16, 36, 64),
    default_seeds=(0, 1, 2),
    bounds={
        "D*logD*logn": (
            "energy",
            lambda p: p.diameter * _log2(p.max_degree) * _log2(p.n),
        ),
    },
))


# --- lower-bound rows ------------------------------------------------------


register_row(RowDefinition(
    name="lb-path",
    title="T1.LOCAL.LB  Theorem 1: worst pre-reception energy vs (1/5) log2 n",
    model="LOCAL",
    graph_family="path",
    builder=_path_builder,
    default_sizes=(64, 256, 1024),
    default_seeds=(0, 1, 2, 3, 4),
    observer=lambda g: PreReceptionObserver(),
    columns=(
        "n", "diameter", "delivered",
        "worst_pre_reception", "lower_bound", "lb_ok",
    ),
    bounds={},
))


register_row(RowDefinition(
    name="lb-reduction",
    title="T1.*.LB  Theorem 2 reduction on K_{2,k}: T_LE <= 2E",
    model="No-CD",
    graph_family="k2k",
    builder=lambda g, o: decay_broadcast_protocol(
        failure=o.get("failure", 0.01)
    ),
    default_sizes=(2, 4, 8, 16),
    default_seeds=(0, 1, 2),
    # The K_{2,k} gadget always has s=0, t=1 (see k2k_gadget).
    observer=lambda g: LeaderElectionObserver(0, 1),
    columns=("n", "le_time", "broadcast_energy", "bound_holds"),
    bounds={},
))


register_row(RowDefinition(
    name="lb-reduction-cd",
    title="T1.CD.LB  Theorem 2 reduction on K_{2,k} in CD (Theorem 11): "
          "T_LE <= 2E",
    model="CD",
    graph_family="k2k",
    builder=_probes_on_builder,
    default_sizes=(2, 4, 8),
    default_seeds=(0, 1),
    observer=lambda g: LeaderElectionObserver(0, 1),
    columns=("n", "le_time", "broadcast_energy", "bound_holds"),
    bounds={},
))


# --- ablations -------------------------------------------------------------


register_row(RowDefinition(
    name="abl-probe",
    title="ABL.probe  Remark 9 probes ON (CD, Theorem 11 params)",
    model="CD",
    graph_family="gnp",
    builder=_probes_on_builder,
    default_sizes=(12,),
    default_seeds=(0, 1, 2),
))

register_row(RowDefinition(
    name="abl-noprobe",
    title="ABL.probe  Remark 9 probes OFF (CD, Theorem 11 params)",
    model="CD",
    graph_family="gnp",
    builder=_probe_builder(False),
    default_sizes=(12,),
    default_seeds=(0, 1, 2),
))

register_row(RowDefinition(
    name="abl-ps-thm11",
    title="ABL.ps  Theorem 11 knobs (p=1/2, s=1) in CD",
    model="CD",
    graph_family="gnp",
    builder=_probes_on_builder,
    default_sizes=(12,),
    default_seeds=(0, 1),
))

register_row(RowDefinition(
    name="abl-ps-thm12",
    title="ABL.ps  Theorem 12 knobs (small p, s=log n) in CD",
    model="CD",
    graph_family="gnp",
    builder=_theorem12_builder,
    default_sizes=(12,),
    default_seeds=(0, 1),
))


def _beta_cell(row: str, size: int, seed: int, options: Dict) -> CellResult:
    """Partition(beta) statistics on a cycle — not a broadcast run.

    Execution options are honored where the bare engine can (the fault
    specs); the batch-level one (``contention_hist``) makes the cell
    *fail loudly* — it is part of the cell's content-hash identity, so
    silently ignoring it would store unmarked default-execution results
    under a different key.
    """
    from repro.core.partition import (
        PartitionParams,
        partition_once,
        partition_result_clusters,
    )
    from repro.core.schemes import SRScheme
    from repro.graphs.properties import diameter as graph_diameter
    from repro.sim import NO_CD, Simulator

    beta = float(options.get("beta", 0.3))
    failure = float(options.get("failure", 0.02))
    graph = cycle_graph(size)
    scheme = SRScheme("No-CD", 2, failure=failure)
    params = PartitionParams(beta=beta, n=size, failure=failure)

    def proto(ctx):
        out = yield from partition_once(ctx, scheme, params)
        return out

    # Simulator itself rejects contention_hist configs.
    result = Simulator(
        graph, NO_CD, seed=seed,
        exec_config=ExecutionConfig.from_options(options),
    ).run(proto)
    clusters = [c for c, _, _ in result.outputs]
    cut = sum(1 for u, v in graph.edges if clusters[u] != clusters[v])
    n_clusters = len(partition_result_clusters(result.outputs)[0])
    return CellResult(
        label=row,
        size=size,
        n=graph.n,
        max_degree=graph.max_degree,
        diameter=graph_diameter(graph),
        seed=seed,
        delivered=True,
        duration=result.duration,
        max_energy=result.max_energy,
        mean_energy=result.mean_energy,
        extras={
            "beta": beta,
            "edge_cut_rate": cut / len(graph.edges),
            "clusters": float(n_clusters),
            "lemma14_bound": 2 * beta,
        },
    )


# --- figure artifacts ------------------------------------------------------


def _figure1_observer(graph: Graph) -> SlotObserver:
    """Figure 1's traffic split and 2n slot bound, counted during the run."""
    # Imported here, so processes that never run this row (a report,
    # say) never load repro.experiments, which imports this package.
    from repro.experiments.figure1 import TrafficObserver

    return TrafficObserver()


register_row(RowDefinition(
    name="figure1",
    title="Fig.1  Algorithm 1 run on a path (payload/control counts, time <= 2n)",
    model="LOCAL",
    graph_family="path",
    builder=_path_builder,
    default_sizes=(32,),
    default_seeds=(0,),
    observer=_figure1_observer,
    columns=(
        "n", "diameter", "delivered", "time_median",
        "max_energy_median", "payload_tx", "slots_2n_ok",
    ),
    bounds={"2n time": ("time", lambda p: 2.0 * p.n)},
))


register_row(RowDefinition(
    name="abl-beta",
    title="ABL.beta  Partition(beta) on a cycle (Lemma 14/15)",
    model="No-CD",
    graph_family="cycle",
    builder=lambda g, o: None,  # unused: custom_cell below runs the cell
    default_sizes=(40,),
    default_seeds=(0, 1, 2),
    custom_cell=_beta_cell,
    columns=("n", "beta", "edge_cut_rate", "lemma14_bound", "clusters"),
    # The partition runs on a bare Simulator: the batch-level option has
    # no layer to consume it here (see _beta_cell).
    unsupported_exec_options=("contention_hist",),
))
