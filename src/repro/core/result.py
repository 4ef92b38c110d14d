"""Result types for balanced k-means."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.timers import StageTimer

__all__ = ["IterationStats", "KMeansResult"]


@dataclass(frozen=True)
class IterationStats:
    """Diagnostics for one center-movement round (Algorithm 2 main loop)."""

    iteration: int
    max_delta: float
    imbalance: float
    balance_iterations: int
    skip_fraction: float
    pruning_fraction: float
    sample_size: int  # points involved this round (< n during sampled init)


@dataclass
class KMeansResult:
    """Output of :func:`repro.core.balanced_kmeans`.

    Attributes
    ----------
    assignment:
        ``(n,)`` block ids in the caller's point order.
    centers, influence:
        Final cluster centers and influence values (``k`` each).
    converged:
        True when the maximum center movement fell below the threshold
        before the iteration cap.
    imbalance:
        Weighted imbalance of the returned assignment.
    history:
        Per-iteration diagnostics (main rounds and sampled-init rounds).
    timers:
        Stage breakdown (sfc_index / redistribute / seeding / sampling /
        assign / update), the basis for the §5.3.2 component analysis.
    """

    assignment: np.ndarray
    centers: np.ndarray
    influence: np.ndarray
    iterations: int
    converged: bool
    imbalance: float
    history: list[IterationStats] = field(default_factory=list)
    timers: StageTimer = field(default_factory=StageTimer)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def skip_fraction(self) -> float:
        """Overall fraction of inner-loop skips (the paper's ~80 % claim, §4.3)."""
        full_rounds = [h for h in self.history if h.sample_size == self.assignment.shape[0]]
        if not full_rounds:
            return 0.0
        return float(np.mean([h.skip_fraction for h in full_rounds]))

    def __repr__(self) -> str:
        return (
            f"KMeansResult(k={self.k}, n={self.assignment.shape[0]}, iterations={self.iterations}, "
            f"converged={self.converged}, imbalance={self.imbalance:.4f})"
        )
