"""Growth-rate analysis for sweep results.

Turns sweep measurements into the quantities EXPERIMENTS.md reports:

* :func:`fit_power_law` — least-squares slope on log-log axes:
  cost ~ n^p.  Polylog costs show p -> 0 as n grows; linear costs show
  p ~ 1.  This is the quantitative version of the "flat ratio" check.
* :func:`fit_log_power` — least-squares exponent k for cost ~ (log n)^k.
* :func:`crossover_size` — first size at which one algorithm's cost drops
  below another's (e.g. where clustering starts beating decay).
* :func:`fault_degradation` — per-size clean-vs-faulted comparison of
  energy, latency, and success rate (the adversity layer's report),
  defined beside :class:`~repro.campaign.cells.SweepPoint` so that
  ``campaign report --degradation`` loads no protocol module, and
  re-exported here.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

from repro.campaign.cells import SweepPoint, fault_degradation

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
