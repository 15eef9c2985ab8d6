"""Order statistics for the benchmark's timings.

A timing is reported as its median plus the highest percentile that has
at least ten samples beyond it; :func:`samples_beyond` is that rule.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (``0 <= q <= 1``) of ``values``.

    Non-finite entries (failed requests carry ``inf`` latency) sort last,
    so they count as missing every latency limit.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if lo == hi or ordered[lo] == ordered[hi]:
        return float(ordered[lo])
    return float(ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]))


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the interpolation position of the ``q`` quantile."""
    if n <= 0:
        return 0
    return n - 1 - math.floor(q * (n - 1))


def supported(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``n`` samples put at least ``min_beyond`` beyond quantile ``q``."""
    return samples_beyond(n, q) >= min_beyond


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which quantile ``q`` is reportable."""
    if not 0 <= q < 1:
        raise ValueError(f"quantile must be in [0, 1), got {q}")
    n = 1
    while not supported(n, q, min_beyond):
        n += 1
    return n
