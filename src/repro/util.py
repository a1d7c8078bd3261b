"""Small numeric helpers shared across the library."""

from __future__ import annotations

import math
import random

__all__ = [
    "ceil_log2",
    "geometric",
]


def ceil_log2(x: int) -> int:
    """Smallest k with 2**k >= x (x >= 1).  ceil_log2(1) == 0."""
    if x < 1:
        raise ValueError(f"ceil_log2 needs x >= 1, got {x}")
    return (x - 1).bit_length()


def geometric(rng: random.Random, p: float = 0.5) -> int:
    """Number of Bernoulli(p) trials up to and including the first success
    (support 1, 2, ...)."""
    if not 0 < p <= 1:
        raise ValueError(f"geometric needs p in (0, 1], got {p}")
    # Inversion method keeps this exact and O(1).
    u = rng.random()
    if p == 1.0:
        return 1
    return int(math.floor(math.log(1.0 - u) / math.log(1.0 - p))) + 1
