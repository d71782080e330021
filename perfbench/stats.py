"""Statistics helpers for the portal benchmark.

* :func:`percentile` — nearest-rank percentile that refuses to report a
  tail the sample cannot support (at least ``min_beyond`` samples must lie
  beyond the reported value, so a p99 needs 1,000 samples).
* :func:`spread` — inter-quartile distance (``statistics.quantiles(n=4)``)
  as a share of the median, the steadiness measure.
* :class:`Zipf` — a seeded Zipf sampler over ranks ``0..n-1``.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics

__all__ = ["InsufficientSamples", "Zipf", "percentile", "spread"]


class InsufficientSamples(ValueError):
    """Too few samples for the requested percentile."""


def percentile(samples, q: float, min_beyond: int = 10) -> float:
    """The ``q``-th percentile (0 < q < 100) by the nearest-rank rule.

    Raises :class:`InsufficientSamples` unless at least ``min_beyond``
    samples lie strictly above the returned rank; the median (q=50) of a
    non-empty sample is always supported once ``2 * min_beyond`` samples
    exist.
    """
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))  # 1-based nearest rank
    if n - rank < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it "
            f"(need {min_beyond})"
        )
    return sorted(samples)[rank - 1]


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


class Zipf:
    """Zipf(s) over ranks ``0..n-1``: P(rank k) ∝ 1 / (k + 1) ** s.

    Draws come from a private ``random.Random(seed)``, so one seed always
    yields one sequence.
    """

    def __init__(self, n: int, s: float, seed: int) -> None:
        if n < 1:
            raise ValueError("Zipf needs at least one rank")
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        total = sum(weights)
        cumulative = []
        running = 0.0
        for w in weights:
            running += w / total
            cumulative.append(running)
        cumulative[-1] = 1.0
        self._cdf = cumulative
        self._rng = random.Random(seed)

    def draw(self) -> int:
        return bisect.bisect_left(self._cdf, self._rng.random())
