"""Influence adaptation (Eq. 1) and erosion (Eq. 2-3).

Reproduction note on Eq. (1).  The paper defines "the ratio of the target
size and current size" gamma and prints ``influence <- influence / gamma^(1/d)``.
Taken literally (gamma = target/current) this *grows* oversized clusters,
contradicting both the surrounding text ("the influence value of oversized
blocks is decreased") and the paper's own expected-size derivation, which
only yields ``size_new = size_target`` when gamma = current/target.  We
therefore implement

    influence[c] *= (target(c) / current(c)) ** (1/d)

which decreases influence for oversized blocks and makes the derivation
check out: effective distances scale by (current/target)^(1/d), so the
cluster's volume — and, under locally uniform density, its size — scales by
target/current, landing on the target.
"""

from __future__ import annotations

import numpy as np

__all__ = ["adapt_influence", "erode_influence"]


def adapt_influence(
    influence: np.ndarray,
    current_weights: np.ndarray,
    target_weights: np.ndarray,
    dim: int,
    cap: float = 0.05,
    floor: float = 1e-9,
    ceil: float = 1e9,
) -> np.ndarray:
    """One influence-adaptation step (Eq. 1 with the 5 % cap).

    Empty clusters (current weight 0) receive the maximum allowed increase so
    they start attracting points again.
    """
    influence = np.asarray(influence, dtype=np.float64)
    current = np.asarray(current_weights, dtype=np.float64)
    target = np.asarray(target_weights, dtype=np.float64)
    if np.any(target <= 0):
        raise ValueError("target weights must be positive")
    with np.errstate(divide="ignore"):
        factor = np.where(current > 0.0, (target / np.maximum(current, 1e-300)) ** (1.0 / dim), np.inf)
    np.clip(factor, 1.0 - cap, 1.0 + cap, out=factor)
    out = influence * factor
    np.clip(out, floor, ceil, out=out)
    return out


def erode_influence(
    influence: np.ndarray,
    deltas: np.ndarray,
    mean_diameter: float,
    floor: float = 1e-9,
    ceil: float = 1e9,
) -> np.ndarray:
    """Influence erosion after center movement (Eq. 2-3).

    ``alpha(c) = 2 / (1 + exp(-delta(c)/beta)) - 1`` rises from 0 (no
    movement) towards 1 (moved much farther than the average cluster
    diameter ``beta``); the influence is then regressed towards 1 via
    ``influence**(1 - alpha)``, because an influence tuned for one
    neighbourhood of clusters is meaningless after a long move.
    """
    influence = np.asarray(influence, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if np.any(deltas < 0):
        raise ValueError("center movement distances must be non-negative")
    beta = float(mean_diameter)
    if beta <= 0.0:
        return influence.copy()
    alpha = 2.0 / (1.0 + np.exp(-deltas / beta)) - 1.0
    out = np.exp((1.0 - alpha) * np.log(influence))
    np.clip(out, floor, ceil, out=out)
    return out
