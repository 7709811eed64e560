"""Percentiles as the benchmark reports them."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: a tail percentile is reported only when at least this many samples lie
#: beyond it
TAIL_SAMPLES = 10

def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the service's own formula)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def tail(values: Sequence[float], q: float = 0.95) -> Tuple[float, float]:
    """``(quantile, q used)``: ``q`` itself when the sample has at least
    :data:`TAIL_SAMPLES` values beyond it, else the highest percentile that
    does (never below the median)."""
    n = len(values)
    supported = max(0.5, math.floor(100 * (n - TAIL_SAMPLES) / n) / 100) if n else 0.5
    used = min(q, supported)
    return quantile(values, used), used


def median(values: Sequence[float]) -> float:
    return statistics.median(values)
