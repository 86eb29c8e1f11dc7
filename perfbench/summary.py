"""Sample summaries: medians and the "at least ten samples beyond" tail."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float]) -> Tuple[int, float]:
    """The highest whole percentile with at least :data:`TAIL_BEYOND` samples above it.

    Uses the nearest-rank definition: the p-th percentile of ``n`` sorted
    samples is the one at rank ``ceil(p * n / 100)``, which leaves
    ``n - rank`` samples beyond it.  Returns ``(p, value)``.  With fewer
    than ``2 * TAIL_BEYOND`` samples even the median has fewer than
    ``TAIL_BEYOND`` samples above it; the median is then returned as ``(50, median)``, so
    the tail never reads below the median.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    best: Optional[int] = None
    for p in range(99, 49, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= TAIL_BEYOND:
            best = p
            break
    if best is None:
        return 50, median(ordered)
    return best, float(ordered[max(1, math.ceil(best * n / 100)) - 1])
