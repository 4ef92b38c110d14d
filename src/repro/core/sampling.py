"""Sampled initialisation rounds (§4.5 "random initialization").

Early k-means rounds move centers and influence values wildly, so full
precision is wasted: the paper permutes the local points, starts with a
100-point sample, runs one assign-and-balance + movement round, doubles the
sample, and repeats — about ``log2(n/100)`` rounds costing roughly one full
round in total, but advancing the centers much further.
"""

from __future__ import annotations

from repro.core.config import BalancedKMeansConfig

__all__ = ["doubling_sizes"]


def doubling_sizes(n: int, config: BalancedKMeansConfig) -> list[int]:
    """Sample sizes of the doubling rounds for a point set of ``n`` points.

    Empty when sampling is disabled or ``n`` is already small (<= 2x the
    initial sample size, where sampling cannot help).  The Algorithm 2 loop
    applies it to the smallest rank's point count, and each rank samples
    the prefixes of its own permutation.
    """
    if not config.use_sampling:
        return []
    size = config.initial_sample_size
    if n <= 2 * size:
        return []
    sizes: list[int] = []
    while size < n:
        sizes.append(size)
        size *= 2
    return sizes
