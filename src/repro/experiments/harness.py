"""Experiment harness: seeded sweeps and ratio-to-bound tables.

The paper's Table 1 is a matrix of asymptotic bounds.  Our reproduction
methodology (DESIGN.md): for each row, sweep the workload size, measure
time (slots) and worst-vertex energy, divide by the claimed bound, and
check the ratio stays roughly flat — that is what "the shape holds" means
at finite sizes.

The per-cell measurement and the seed aggregation live in
:mod:`repro.campaign.cells`; :func:`sweep` is the thin *serial* driver
over that shared core, and :mod:`repro.campaign.runner` is the sharded
one — both produce identical :class:`SweepPoint` aggregates for the
same seeds.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.broadcast.base import BroadcastOutcome
from repro.campaign.cells import (
    SweepPoint,
    aggregate_cells,
    knowledge_for,
    run_cells,
)
from repro.graphs.graph import Graph
from repro.sim.config import ExecutionConfig
from repro.sim.models import ChannelModel

__all__ = ["SweepPoint", "sweep", "format_table", "geometric_sizes"]

# A bound column is either a plain callable (worst-vertex energy over
# the bound, the historical form) or a ("energy" | "time", callable)
# pair selecting which measured median goes in the numerator.
BoundSpec = Union[
    Callable[[SweepPoint], float],
    Tuple[str, Callable[[SweepPoint], float]],
]

_RATIO_METRICS: Dict[str, Callable[[SweepPoint, float], float]] = {
    "energy": SweepPoint.ratio,
    "time": SweepPoint.time_ratio,
}


def sweep(
    label: str,
    graph_factory: Callable[[int], Graph],
    sizes: Sequence[int],
    protocol_builder: Callable[[Graph], Callable],
    model: ChannelModel,
    seeds: Sequence[int] = (0, 1, 2),
    source: int = 0,
    *,
    id_space_from_n: bool = False,
    extra_metrics: Optional[Callable[[BroadcastOutcome], Dict[str, float]]] = None,
    exec_config: Optional[ExecutionConfig] = None,
) -> List[SweepPoint]:
    """Run ``protocol_builder(graph)`` on every size and seed; aggregate.

    Each size's seeds run as one batch on the shared engine core
    (:func:`repro.campaign.cells.run_cells`), so serial sweeps and
    sharded campaigns execute the identical per-cell computation.
    ``exec_config`` gives the serial driver the *full* execution
    surface.  ``resolution`` backend, ``lockstep`` batching, and
    per-seed ``observer_factory`` hooks are measurement-neutral
    (byte-identical results); ``contention_hist`` adds the per-slot
    channel-load analytics to every point's extras; and the remaining
    fields *can* change what comes back — a small ``time_limit`` can
    abort runs, and the fault specs and ``model_factory`` change the
    channel itself.
    """
    points: List[SweepPoint] = []
    for size in sizes:
        graph = graph_factory(size)
        knowledge = knowledge_for(graph, id_space_from_n=id_space_from_n)
        cells = run_cells(
            graph,
            model,
            protocol_builder(graph),
            label=label,
            size=size,
            seeds=seeds,
            source=source,
            knowledge=knowledge,
            extra_metrics=extra_metrics,
            exec_config=exec_config,
        )
        points.append(aggregate_cells(cells))
    return points


def geometric_sizes(start: int, factor: int, count: int) -> List[int]:
    sizes = []
    size = start
    for _ in range(count):
        sizes.append(size)
        size *= factor
    return sizes


def _ratio(point: SweepPoint, spec: BoundSpec) -> float:
    if callable(spec):
        metric, bound_fn = "energy", spec
    else:
        metric, bound_fn = spec
        if metric not in _RATIO_METRICS:
            raise ValueError(
                f"unknown bound metric {metric!r}; "
                f"expected one of {sorted(_RATIO_METRICS)}"
            )
    return _RATIO_METRICS[metric](point, bound_fn(point))


def format_table(
    title: str,
    points: Sequence[SweepPoint],
    columns: Sequence[str] = (
        "n", "max_degree", "diameter", "delivered",
        "time_median", "max_energy_median",
    ),
    bounds: Optional[Dict[str, BoundSpec]] = None,
) -> str:
    """Render a sweep as a fixed-width text table with optional
    measured/bound ratio columns (the flat-ratio check).

    ``bounds`` values may be plain callables (energy ratio) or
    ``("time", fn)`` / ``("energy", fn)`` pairs to select the measured
    median used in the numerator.
    """
    bounds = bounds or {}
    headers = list(columns) + [f"{name} ratio" for name in bounds]
    rows = []
    for point in points:
        row = []
        for column in columns:
            value = getattr(point, column, None)
            if value is None:
                value = point.extras.get(column, "")
            if isinstance(value, float):
                value = f"{value:.1f}"
            row.append(str(value))
        for spec in bounds.values():
            row.append(f"{_ratio(point, spec):.2f}")
        rows.append(row)
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
