"""The shared measurement core: one cell = one (row, size, seed) run.

Every table the repo prints funnels through this module: the serial
:mod:`repro.campaign.runner` (which ``repro table1`` and ``repro
ablations`` drive) and the fabric's workers both execute blocks through
:func:`run_fused_cells`, so their aggregates are the *same computation*
— persistence and parallelism are layered on top.

:class:`SweepPoint` is the aggregate of one (row, size) group of cells
(:func:`aggregate_cells`).
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.broadcast.base import run_broadcast_trials
from repro.graphs.graph import Graph
from repro.graphs.properties import diameter as graph_diameter
from repro.sim.config import ExecutionConfig, resolve_exec_config
from repro.sim.models import ChannelModel
from repro.sim.node import Knowledge
from repro.sim.observers import ContentionHistogramObserver, SlotObserver

__all__ = [
    "SweepPoint",
    "CellResult",
    "knowledge_for",
    "run_cells",
    "run_fused_cells",
    "aggregate_cells",
    "bootstrap_median_ci",
]

@dataclass
class SweepPoint:
    """Aggregated measurements at one workload size."""

    label: str
    n: int
    max_degree: int
    diameter: int
    seeds: int
    delivered: int
    time_median: float
    max_energy_median: float
    mean_energy_median: float
    extras: Dict[str, float] = field(default_factory=dict)

    def ratio(self, bound: float) -> float:
        """Measured worst-vertex energy divided by a claimed bound."""
        return self.max_energy_median / max(bound, 1e-9)

    def time_ratio(self, bound: float) -> float:
        return self.time_median / max(bound, 1e-9)


@dataclass
class CellResult:
    """Raw measurements from one (row, size, seed) cell.

    This is the unit of work a campaign shards, stores, and resumes.
    """

    label: str
    size: int
    n: int
    max_degree: int
    diameter: int
    seed: int
    delivered: bool
    duration: float
    max_energy: float
    mean_energy: float
    extras: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "size": self.size,
            "n": self.n,
            "max_degree": self.max_degree,
            "diameter": self.diameter,
            "seed": self.seed,
            "delivered": bool(self.delivered),
            "duration": self.duration,
            "max_energy": self.max_energy,
            "mean_energy": self.mean_energy,
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CellResult":
        return cls(
            label=data["label"],
            size=int(data["size"]),
            n=int(data["n"]),
            max_degree=int(data["max_degree"]),
            diameter=int(data["diameter"]),
            seed=int(data["seed"]),
            delivered=bool(data["delivered"]),
            duration=data["duration"],
            max_energy=data["max_energy"],
            mean_energy=data["mean_energy"],
            extras=dict(data.get("extras", {})),
        )


def knowledge_for(graph: Graph, id_space_from_n: bool = False) -> Knowledge:
    """The a-priori knowledge every harness run hands to devices."""
    return Knowledge(
        n=graph.n,
        max_degree=max(graph.max_degree, 1),
        diameter=graph_diameter(graph),
        id_space=graph.n if id_space_from_n else None,
    )


def run_cells(
    graph: Graph,
    model: ChannelModel,
    protocol_factory: Callable,
    *,
    label: str,
    size: int,
    seeds: Sequence[int],
    source: int = 0,
    knowledge: Optional[Knowledge] = None,
    id_space_from_n: bool = False,
    observer: Optional[Callable[[Graph], SlotObserver]] = None,
    exec_config: Optional[ExecutionConfig] = None,
) -> List[CellResult]:
    """Execute one (row, size) cell group across seeds on the batched core.

    The one-member case of :func:`run_fused_cells`: all trials share one
    prepared engine (:func:`repro.broadcast.base.run_broadcast_trials`),
    so graph preprocessing and knowledge are paid once per size, not per
    seed.  ``observer`` is a row's measurement
    (:attr:`repro.campaign.registry.RowDefinition.observer`): called
    with the graph, it builds one observer per trial, and that
    observer's ``extras(outcome)`` become the cell's ``extras``.
    ``exec_config`` steers how the batch executes — every field of
    :class:`~repro.sim.config.ExecutionConfig` is honored here, and
    this is the layer that consumes ``contention_hist``: it attaches a
    per-trial :class:`~repro.sim.observers.ContentionHistogramObserver`
    and folds its summary into each cell's ``extras`` under ``ch_*``
    keys.  Both ride on the ``observer_factory`` hook, stacked on top
    of any user factory.  Returns one :class:`CellResult` per seed, in
    ``seeds`` order.
    """
    return run_fused_cells(
        graph,
        model,
        protocol_factory,
        [(label, seeds, observer)],
        size=size,
        source=source,
        knowledge=knowledge,
        id_space_from_n=id_space_from_n,
        exec_config=exec_config,
    )[0]


def run_fused_cells(
    graph: Graph,
    model: ChannelModel,
    protocol_factory: Callable,
    members: Sequence[
        Tuple[str, Sequence[int], Optional[Callable[[Graph], SlotObserver]]]
    ],
    *,
    size: int,
    source: int = 0,
    knowledge: Optional[Knowledge] = None,
    id_space_from_n: bool = False,
    exec_config: Optional[ExecutionConfig] = None,
) -> List[List[CellResult]]:
    """Run one simulation for several rows that measure it differently.

    ``members`` are ``(label, seeds, observer)`` triples over the same
    graph, model and protocol.  Each seed of their union runs once, in
    first-appearance order; that trial carries the observer of every
    member that asked for the seed, plus one contention histogram when
    ``exec_config`` sets ``contention_hist`` (see :func:`run_cells`).
    A member's extras come from its own observer only, so a member
    without one gets no measurement extras even when a blockmate
    attaches one.  Returns one :class:`CellResult` list per member, in
    member and then ``seeds`` order.
    """
    config = resolve_exec_config(exec_config)
    if knowledge is None:
        knowledge = knowledge_for(graph, id_space_from_n=id_space_from_n)
    seeds = list(dict.fromkeys(
        seed for _, member_seeds, _ in members for seed in member_seeds
    ))
    observed = [
        (index, observer, set(member_seeds))
        for index, (_, member_seeds, observer) in enumerate(members)
        if observer is not None
    ]
    # Keyed by seed, so the last trial built for a seed is the one read.
    histograms: Dict[int, ContentionHistogramObserver] = {}
    measures: Dict[Tuple[int, int], SlotObserver] = {}
    if config.contention_hist or observed:
        user_factory = config.observer_factory
        contention_hist = config.contention_hist

        def observer_factory(seed):
            attached = []
            if contention_hist:
                histograms[seed] = ContentionHistogramObserver(graph)
                attached.append(histograms[seed])
            for index, observer, wanted in observed:
                if seed in wanted:
                    measures[index, seed] = observer(graph)
                    attached.append(measures[index, seed])
            extra = tuple(user_factory(seed)) if user_factory else ()
            return tuple(attached) + extra

        config = config.replace(
            contention_hist=False, observer_factory=observer_factory
        )
    outcomes = dict(zip(seeds, run_broadcast_trials(
        graph,
        model,
        protocol_factory,
        seeds,
        source=source,
        knowledge=knowledge,
        exec_config=config,
    )))
    return [
        [
            _cell_result(
                label, size, graph, knowledge, seed, outcomes[seed],
                measures.get((index, seed)), histograms.get(seed),
            )
            for seed in member_seeds
        ]
        for index, (label, member_seeds, _) in enumerate(members)
    ]


def _cell_result(
    label: str,
    size: int,
    graph: Graph,
    knowledge: Knowledge,
    seed: int,
    outcome,
    measure: Optional[SlotObserver],
    histogram: Optional[ContentionHistogramObserver],
) -> CellResult:
    """Reduce one trial's outcome to one member's stored numbers."""
    extras = dict(measure.extras(outcome)) if measure is not None else {}
    if histogram is not None:
        extras.update({
            f"ch_{key}": value for key, value in histogram.summary().items()
        })
    return CellResult(
        label=label,
        size=size,
        n=graph.n,
        max_degree=graph.max_degree,
        diameter=knowledge.diameter,
        seed=seed,
        delivered=outcome.delivered,
        duration=outcome.duration,
        max_energy=outcome.max_energy,
        mean_energy=outcome.mean_energy,
        extras=extras,
    )


def bootstrap_median_ci(
    values: Sequence[float],
    resamples: int = 200,
    confidence: float = 0.9,
    seed: int = 0,
) -> tuple:
    """Percentile-bootstrap confidence interval for the median.

    Deterministic for a given ``seed`` so stored aggregates are
    reproducible run-to-run.
    """
    if not values:
        return (0.0, 0.0)
    if len(values) == 1:
        return (values[0], values[0])
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(values, k=len(values)))
        for _ in range(resamples)
    )
    lo_q = (1.0 - confidence) / 2.0
    lo = medians[int(lo_q * (resamples - 1))]
    hi = medians[int((1.0 - lo_q) * (resamples - 1))]
    return (lo, hi)


def aggregate_cells(cells: Sequence[CellResult], extended: bool = False) -> SweepPoint:
    """Reduce the cells of one (row, size) group to a :class:`SweepPoint`.

    With ``extended=False`` this computes medians over seeds;
    ``extended=True`` adds min/max/stdev and bootstrap confidence
    intervals to ``extras``.

    Extras are aggregated by median, except pass/fail flags — keys
    ending in ``_holds`` or ``_ok`` — which aggregate conjunctively
    (min over 0/1 values): one failing seed must surface as failure.
    """
    if not cells:
        raise ValueError("cannot aggregate an empty cell group")
    cells = sorted(cells, key=lambda c: c.seed)
    times = [c.duration for c in cells]
    max_energies = [c.max_energy for c in cells]
    mean_energies = [c.mean_energy for c in cells]
    extras_acc: Dict[str, List[float]] = {}
    for cell in cells:
        for key, value in cell.extras.items():
            extras_acc.setdefault(key, []).append(value)
    extras = {
        key: (
            min(values)
            if key.endswith("_holds") or key.endswith("_ok")
            else statistics.median(values)
        )
        for key, values in extras_acc.items()
    }
    if extended:
        for name, values in (
            ("time", times),
            ("max_energy", max_energies),
            ("mean_energy", mean_energies),
        ):
            extras[f"{name}_min"] = min(values)
            extras[f"{name}_max"] = max(values)
            extras[f"{name}_stdev"] = (
                statistics.stdev(values) if len(values) > 1 else 0.0
            )
            lo, hi = bootstrap_median_ci(values, seed=cells[0].size)
            extras[f"{name}_ci_lo"] = lo
            extras[f"{name}_ci_hi"] = hi
    head = cells[0]
    return SweepPoint(
        label=head.label,
        n=head.n,
        max_degree=head.max_degree,
        diameter=head.diameter,
        seeds=len(cells),
        delivered=sum(1 for c in cells if c.delivered),
        time_median=statistics.median(times),
        max_energy_median=statistics.median(max_energies),
        mean_energy_median=statistics.median(mean_energies),
        extras=extras,
    )
