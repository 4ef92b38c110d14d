"""Hamerly-style distance bounds adapted to effective distances (§4.3).

Invariants maintained between exact recomputations, for every point ``p``
with assigned cluster ``a(p)``:

- ``ub[p] >= eff(p, a(p))``            (upper bound on own effective distance)
- ``lb[p] <= min_{c != a(p)} eff(p, c)``  (lower bound on the runner-up)

When ``ub[p] < lb[p]`` the assignment of ``p`` provably cannot change and the
inner loop over centers is skipped (Algorithm 1, line 9).

Reproduction note on Eq. (4)-(5).  The paper prints ``ub' = ub - delta/I``
and ``lb' = lb + max(...)``; with those signs the quantities stop being
bounds (a center that moved *away* from a point could then be skipped while
actually having become the runner-up).  Hamerly's original scheme — which the
paper says it adapts — widens the gap: the upper bound grows by the own
center's (effective) movement, the lower bound shrinks by the largest
(effective) movement of any center.  We implement those directions.

Cluster-exact relaxations.  The classic Hamerly relaxation shrinks every
point's runner-up bound by the *global* worst case (``lb *= ratio.min()`` /
``lb -= eff_delta.max()``), so an influence change or center move in one
region invalidates bounds everywhere.  But the runner-up of ``p`` is by
definition a center ``c != a(p)``, so the worst case only needs to range
over the *other* clusters: a top-2 over the per-cluster factors yields, for
each point, the exact exclusive extremum (the global extremum, or the
second one when the extremal cluster is the point's own).  Both functions
below use that form; it costs one ``O(n)`` ``where`` and never changes
results (bounds only gate which points are re-evaluated).  They run where
the sweep workspace has no static SFC blocks to relax over (see
:meth:`repro.core.kernels.SweepWorkspace.queue_relax_influence`, which
narrows the worst case further, to each block's §4.4 candidates).
"""

from __future__ import annotations

import numpy as np

__all__ = ["init_bounds", "relax_for_movement", "relax_for_influence"]


def init_bounds(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh bounds forcing full evaluation: ub = +inf, lb = 0 (Algorithm 2, line 9)."""
    return np.full(n, np.inf), np.zeros(n)


def _eff_deltas(deltas: np.ndarray, influence: np.ndarray) -> np.ndarray:
    eff_delta = np.asarray(deltas, dtype=np.float64) / np.asarray(influence, dtype=np.float64)
    if np.any(eff_delta < 0):
        raise ValueError("deltas and influence must be non-negative/positive")
    return eff_delta


def _influence_ratio(old_influence: np.ndarray, new_influence: np.ndarray) -> np.ndarray:
    old = np.asarray(old_influence, dtype=np.float64)
    new = np.asarray(new_influence, dtype=np.float64)
    if np.any(old <= 0) or np.any(new <= 0):
        raise ValueError("influence values must be strictly positive")
    return old / new


def _bottom2(values: np.ndarray) -> tuple[int, float, float]:
    """(argmin, min, second-min) of a k-vector; second-min is inf for k == 1."""
    j = int(np.argmin(values))
    lo = float(values[j])
    if values.shape[0] == 1:
        return j, lo, np.inf
    rest = np.delete(values, j)
    return j, lo, float(rest.min())


def relax_for_movement(
    ub: np.ndarray,
    lb: np.ndarray,
    assignment: np.ndarray,
    deltas: np.ndarray,
    influence: np.ndarray,
) -> None:
    """Relax bounds in place after centers moved by ``deltas`` (Eq. 4-5, fixed signs).

    A center move of ``delta(c)`` changes any point's distance to ``c`` by at
    most ``delta(c)``, hence its *effective* distance by at most
    ``delta(c) / influence(c)``.  The own-center bound grows by its center's
    effective movement; the runner-up bound shrinks by the largest effective
    movement over centers *other than its own* (top-2 over the per-cluster
    movements), so a relocation in one region stops invalidating bounds
    everywhere else.
    """
    eff_delta = _eff_deltas(deltas, influence)
    j, hi, hi2 = _bottom2(-eff_delta)
    hi, hi2 = -hi, -hi2 if np.isfinite(hi2) else 0.0
    ub += eff_delta[assignment]
    lb -= np.where(assignment == j, hi2, hi)
    np.maximum(lb, 0.0, out=lb)


def relax_for_influence(
    ub: np.ndarray,
    lb: np.ndarray,
    assignment: np.ndarray,
    old_influence: np.ndarray,
    new_influence: np.ndarray,
) -> None:
    """Rescale bounds in place after influence values changed.

    Effective distances transform exactly: ``eff_new(c) = eff_old(c) * I_old(c)/I_new(c)``.
    The own-center bound rescales exactly; the runner-up bound is multiplied
    by the smallest ratio over centers *other than its own* (top-2 over the
    per-cluster ratios), which keeps it a valid lower bound whichever of
    those centers is the runner-up, and keeps bounds tight when only one
    cluster's influence dropped sharply.
    """
    ratio = _influence_ratio(old_influence, new_influence)
    j, lo, lo2 = _bottom2(ratio)
    if not np.isfinite(lo2):
        lo2 = 1.0
    ub *= ratio[assignment]
    lb *= np.where(assignment == j, lo2, lo)
