"""Rebuild sweep aggregates from a campaign's result store and render
them as tables.

The store holds raw per-seed cells; this module groups them back into
:class:`~repro.campaign.cells.SweepPoint` rows via
:func:`aggregate_cells` (:func:`aggregate_campaign` adds min/max/stdev
plus bootstrap confidence intervals on top by default), and renders each
row as a ratio-to-bound table (:func:`format_table`).

The paper's Table 1 is a matrix of asymptotic bounds.  The
reproduction sweeps each row's workload size, measures time (slots)
and worst-vertex energy, divides by the claimed bound, and checks the
ratio stays roughly flat: that is what "the shape holds" means at
finite sizes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.cells import (
    CellResult,
    SweepPoint,
    aggregate_cells,
    fault_degradation,
)
from repro.campaign.registry import get_row, resolve_bounds
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import STATUS_OK, CampaignStore

__all__ = [
    "FAULT_OPTION_KEYS",
    "format_table",
    "variant_label",
    "cells_for_campaign",
    "aggregate_campaign",
    "campaign_status",
    "render_status",
    "render_report",
    "render_degradation",
]

Options = Tuple[Tuple[str, object], ...]

#: Cell options that inject faults (the adversity layer).  A row variant
#: carrying any of these is "faulted"; stripping them names its clean
#: twin for the ``campaign report --degradation`` pairing.
FAULT_OPTION_KEYS = ("churn", "jam", "burst_loss")

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


def _format_float(value: float) -> str:
    """Up to three decimals, trailing zeros trimmed down to one:
    ``235521.0``, ``1.2``, ``0.075``, ``10.023``."""
    text = f"{value:.3f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def format_table(
    title: str,
    points: Sequence[SweepPoint],
    columns: Sequence[str] = (
        "n", "max_degree", "diameter", "delivered",
        "time_median", "max_energy_median",
    ),
    bounds: Optional[Dict[str, BoundSpec]] = None,
) -> str:
    """Render points as a fixed-width text table with optional
    measured/bound ratio columns (the flat-ratio check).

    ``bounds`` values may be plain callables (energy ratio) or
    ``("time", fn)`` / ``("energy", fn)`` pairs to select the measured
    median used in the numerator.  A column that is not a
    :class:`SweepPoint` field is read from each point's extras.
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
                value = _format_float(value)
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


def variant_label(row: str, options: Options) -> str:
    """Display name for a row variant: ``abl-beta[beta=0.15]``."""
    if not options:
        return row
    rendered = ",".join(f"{key}={value}" for key, value in options)
    return f"{row}[{rendered}]"


def cells_for_campaign(
    spec: CampaignSpec, store: CampaignStore
) -> Dict[Tuple[str, Options], Dict[int, List[CellResult]]]:
    """Completed cells, grouped (row, options) -> size -> cells.

    Options are part of the group key so a campaign listing the same
    row with different options (e.g. the beta ablation) aggregates
    each variant separately.  Only cells whose job key is part of the
    campaign's matrix are included, so one store can hold several
    overlapping campaigns.
    """
    records = store.load()
    grouped: Dict[Tuple[str, Options], Dict[int, List[CellResult]]] = {}
    seen = set()
    for job in spec.jobs():
        key = job.key()
        if key in seen:  # overlapping row entries name a cell twice
            continue
        seen.add(key)
        record = records.get(key)
        if not record or record.get("status") != STATUS_OK:
            continue
        cell = CellResult.from_dict(record["result"])
        grouped.setdefault((job.row, job.options), {}).setdefault(
            job.size, []
        ).append(cell)
    return grouped


def aggregate_campaign(
    spec: CampaignSpec, store: CampaignStore, extended: bool = True
) -> Dict[str, List[SweepPoint]]:
    """Variant label -> SweepPoints (ascending size) from completed cells.

    The label is the bare row name when the row has no options.
    """
    grouped = cells_for_campaign(spec, store)
    points: Dict[str, List[SweepPoint]] = {}
    for (row, options), by_size in grouped.items():
        points[variant_label(row, options)] = [
            aggregate_cells(by_size[size], extended=extended)
            for size in sorted(by_size)
        ]
    return points


def campaign_status(
    spec: CampaignSpec, store: CampaignStore
) -> Dict[str, Dict[str, int]]:
    """Per-row cell accounting: total / ok / failed / pending."""
    records = store.load()
    status: Dict[str, Dict[str, int]] = {}
    seen = set()
    for job in spec.jobs():
        key = job.key()
        if key in seen:
            continue
        seen.add(key)
        row = status.setdefault(
            job.row, {"total": 0, "ok": 0, "failed": 0, "pending": 0}
        )
        row["total"] += 1
        record = records.get(key)
        if record is None:
            row["pending"] += 1
        elif record.get("status") == STATUS_OK:
            row["ok"] += 1
        else:
            row["failed"] += 1
    return status


def render_status(spec: CampaignSpec, store: CampaignStore) -> str:
    status = campaign_status(spec, store)
    total = {key: sum(row[key] for row in status.values())
             for key in ("total", "ok", "failed", "pending")}
    lines = [f"campaign {spec.name}: "
             f"{total['ok']}/{total['total']} cells complete, "
             f"{total['failed']} failed, {total['pending']} pending"]
    width = max(len(name) for name in status)
    for name, row in status.items():
        bar = "#" * row["ok"] + "!" * row["failed"] + "." * row["pending"]
        lines.append(
            f"  {name.ljust(width)}  {row['ok']:>3}/{row['total']:<3} {bar}"
        )
    return "\n".join(lines)


def render_report(spec: CampaignSpec, store: CampaignStore) -> str:
    """Render every row entry's table, in config order: the row's
    title, its columns (plus the ``ch_*`` columns when the entry sets
    ``contention_hist``) and its measured/bound ratios.  ``campaign
    report``, ``repro table1`` and ``repro ablations`` all print this.

    It aggregates without the extended extras: no row's columns read
    them (a registry test checks), and their bootstrap intervals cost
    more than the rest of the report."""
    points = aggregate_campaign(spec, store, extended=False)
    sections = []
    for plan in spec.rows:
        definition = get_row(plan.row)
        options = tuple(sorted(plan.options.items()))
        label = variant_label(plan.row, options)
        title = (
            definition.title if not options
            else f"{definition.title}  ({label})"
        )
        row_points = points.get(label)
        if not row_points:
            sections.append(f"{title}\n  (no completed cells)")
            continue
        columns = definition.columns
        if plan.options.get("contention_hist"):
            # Show the analytics ride-along next to the row's columns.
            columns = tuple(columns) + ("ch_mean_load", "ch_collision_rate")
        sections.append(format_table(
            title,
            row_points,
            columns=columns,
            bounds=resolve_bounds(definition, plan.options),
        ))
    return "\n\n".join(sections)


def render_degradation(spec: CampaignSpec, store: CampaignStore) -> str:
    """Clean-vs-faulted comparison table for every faulted row variant.

    A variant is faulted when its options carry any of
    :data:`FAULT_OPTION_KEYS`; its clean twin is the same row with the
    fault keys stripped.  Twins missing from the campaign (or with no
    completed cells yet) are reported, not errors — a half-finished run
    still renders whatever pairs exist.
    """
    points = aggregate_campaign(spec, store, extended=False)
    seen = set()
    sections = []
    for plan in spec.rows:
        options = tuple(sorted(plan.options.items()))
        faults = [(k, v) for k, v in options if k in FAULT_OPTION_KEYS]
        if not faults:
            continue
        label = variant_label(plan.row, options)
        if label in seen:
            continue
        seen.add(label)
        clean_options = tuple(
            (k, v) for k, v in options if k not in FAULT_OPTION_KEYS
        )
        clean_label = variant_label(plan.row, clean_options)
        fault_desc = ",".join(f"{k}={v}" for k, v in faults)
        header = f"{label}  vs clean twin {clean_label}"
        faulted_points = points.get(label)
        clean_points = points.get(clean_label)
        if not faulted_points:
            sections.append(f"{header}\n  (no completed faulted cells)")
            continue
        if not clean_points:
            sections.append(
                f"{header}\n  (clean twin has no completed cells — add a "
                f"row without {fault_desc} to the campaign)"
            )
            continue
        rows = fault_degradation(clean_points, faulted_points)
        if not rows:
            sections.append(f"{header}\n  (no common sizes completed yet)")
            continue
        lines = [header]
        lines.append(
            f"  {'n':>6}  {'energy c/f':>15}  {'xE':>6}  "
            f"{'time c/f':>17}  {'xT':>6}  {'success c/f':>12}"
        )
        for row in rows:
            lines.append(
                f"  {row['n']:>6}  "
                f"{row['energy_clean']:>7.1f}/{row['energy_faulted']:<7.1f}  "
                f"{row['energy_ratio']:>6.2f}  "
                f"{row['time_clean']:>8.1f}/{row['time_faulted']:<8.1f}  "
                f"{row['time_ratio']:>6.2f}  "
                f"{row['success_clean']:>5.0%}/{row['success_faulted']:<5.0%}"
            )
        sections.append("\n".join(lines))
    if not sections:
        return (
            "no faulted rows in this campaign (rows gain churn/jam/"
            "burst_loss options to enter the degradation report)"
        )
    return "\n\n".join(sections)
