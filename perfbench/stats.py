"""Percentiles, and the rule for naming one.

A latency is reported as a median plus a tail percentile, and a
percentile is only named when at least ``MIN_TAIL_SAMPLES`` samples lie
beyond it: a p99 needs a thousand samples, a p95 two hundred.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Samples that must lie beyond a named percentile.
MIN_TAIL_SAMPLES = 10


def samples_needed(pct: float) -> int:
    """Smallest sample count whose ``pct`` percentile has enough tail."""
    tail_share = 1.0 - pct / 100.0
    return math.ceil(MIN_TAIL_SAMPLES / tail_share - 1e-9)


def supports(count: int, pct: float) -> bool:
    """Whether ``count`` samples support naming the ``pct`` percentile."""
    return count >= samples_needed(pct)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the sample itself, never interpolated)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float], pct: float) -> Optional[float]:
    """``percentile`` if the sample supports it, else ``None``."""
    if not supports(len(values), pct):
        return None
    return percentile(values, pct)
