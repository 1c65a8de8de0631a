"""The percentile rule of the benchmark's reports."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank q-quantile (0 < q < 1), reported only when at least
    MIN_BEYOND samples lie beyond it; a thinner tail raises ValueError."""
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    xs = sorted(samples)
    rank = max(1, math.ceil(q * len(xs)))
    beyond = len(xs) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(xs)} samples has {beyond} beyond it, "
            f"need {MIN_BEYOND}")
    return xs[rank - 1]

