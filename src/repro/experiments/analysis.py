"""Growth-rate analysis for sweep results.

Turns sweep measurements into the quantities EXPERIMENTS.md reports:

* :func:`fit_power_law` — least-squares slope on log-log axes:
  cost ~ n^p.  Polylog costs show p -> 0 as n grows; linear costs show
  p ~ 1.  This is the quantitative version of the "flat ratio" check.
* :func:`fit_log_power` — least-squares exponent k for cost ~ (log n)^k.
* :func:`crossover_size` — first size at which one algorithm's cost drops
  below another's (e.g. where clustering starts beating decay).
* :func:`fault_degradation` — per-size clean-vs-faulted comparison of
  energy, latency, and success rate (the adversity layer's report).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.cells import SweepPoint

__all__ = [
    "fit_power_law",
    "fit_log_power",
    "crossover_size",
    "fault_degradation",
]


def _least_squares_slope(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Slope and intercept of the least-squares line through (xs, ys)."""
    if len(xs) < 2:
        raise ValueError("need at least two points to fit")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all x values equal")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


def fit_power_law(
    points: Sequence[SweepPoint],
    metric: Callable[[SweepPoint], float] = lambda p: p.max_energy_median,
) -> float:
    """Exponent p of metric ~ n^p (log-log least squares)."""
    xs = [math.log(point.n) for point in points]
    ys = [math.log(max(metric(point), 1e-9)) for point in points]
    slope, _ = _least_squares_slope(xs, ys)
    return slope


def fit_log_power(
    points: Sequence[SweepPoint],
    metric: Callable[[SweepPoint], float] = lambda p: p.max_energy_median,
) -> float:
    """Exponent k of metric ~ (log n)^k."""
    xs = [math.log(math.log(max(point.n, 3))) for point in points]
    ys = [math.log(max(metric(point), 1e-9)) for point in points]
    slope, _ = _least_squares_slope(xs, ys)
    return slope


def crossover_size(
    a: Sequence[SweepPoint],
    b: Sequence[SweepPoint],
    metric: Callable[[SweepPoint], float] = lambda p: p.max_energy_median,
) -> Optional[int]:
    """Smallest common n where metric(a) < metric(b); None if never.

    Both sweeps must cover the same sizes (extra sizes are ignored).
    """
    b_by_n = {point.n: point for point in b}
    for point in sorted(a, key=lambda p: p.n):
        other = b_by_n.get(point.n)
        if other is not None and metric(point) < metric(other):
            return point.n
    return None


def fault_degradation(
    clean: Sequence[SweepPoint],
    faulted: Sequence[SweepPoint],
) -> List[Dict[str, float]]:
    """Per-size degradation rows for a faulted sweep vs its clean twin.

    Pairs points by ``n`` (sizes present in only one sweep are skipped)
    and reports, for each common size: median worst-vertex energy,
    median broadcast time, and success rate (delivered seeds / seeds)
    under both conditions, plus faulted/clean ratios for the two cost
    metrics.  Ratios > 1 quantify how much the adversity layer (churn,
    jamming, bursty loss) costs the protocol.
    """
    clean_by_n = {point.n: point for point in clean}
    rows: List[Dict[str, float]] = []
    for point in sorted(faulted, key=lambda p: p.n):
        base = clean_by_n.get(point.n)
        if base is None:
            continue
        rows.append({
            "n": point.n,
            "energy_clean": base.max_energy_median,
            "energy_faulted": point.max_energy_median,
            "energy_ratio": point.max_energy_median
            / max(base.max_energy_median, 1e-9),
            "time_clean": base.time_median,
            "time_faulted": point.time_median,
            "time_ratio": point.time_median / max(base.time_median, 1e-9),
            "success_clean": base.delivered / max(base.seeds, 1),
            "success_faulted": point.delivered / max(point.seeds, 1),
        })
    return rows
