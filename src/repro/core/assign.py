"""Vectorised assignment sweep and per-rank reductions (Algorithm 1's kernels).

The paper's inner loop is per-point; :func:`assign_points` expresses one
sweep of it over numpy arrays:

- the Hamerly filter ``ub < lb`` selects, in one vector comparison, the
  points whose assignment provably cannot have changed (line 9);
- the remaining points are processed in chunks; with box pruning on, the
  chunks follow the workspace's static SFC blocks and the bounding-box rule
  of §4.4 selects candidate centers *exactly* per block: a center whose
  minimum effective distance to the block's bounding box exceeds the
  second-smallest *maximum* effective distance of any center to that box
  can be neither the best nor the runner-up for any point in the box, so
  dropping it cannot change assignments or bounds (the two centers
  defining the threshold are always kept, making the rule
  self-consistent).  Without static blocks (box pruning off, ``k <= 2`` or
  an empty point set) every chunk evaluates all centers; for ``k <= 2``
  the rule could drop none of them anyway.

All sweep-invariant geometry (point norms, center norms, ``influence**-2``,
static SFC block boxes, scratch buffers) lives in a
:class:`~repro.core.kernels.SweepWorkspace` threaded through every call; the
top-2 reduction itself runs in squared space (see
:mod:`repro.geometry.distances`).  The pruning rule reuses block boxes
computed once per run and box-to-center distances computed once per phase.

Incremental engine (on whenever ``config.use_bounds`` is): the workspace's
per-sub-block bound aggregates certify whole sub-blocks unchanged without
reading any per-point array, so the per-sweep active scan runs only inside
woken sub-blocks (with an adaptive fallback to the global scan when the
trajectory is churning); each sweep additionally reports the per-cluster
*weight delta* of the assignments it changed, so the caller can maintain
the block weights incrementally instead of re-bincounting all ``n`` points
every balance iteration, and the bound relaxations between iterations use
the candidate-local forms via the workspace.  Every relaxation keeps the
bounds *valid*, and every evaluation is exact, so assignments, influence,
imbalance and block weights are identical to the ``use_bounds=False``
sweep; see :class:`~repro.core.config.BalancedKMeansConfig` for the
exactness caveat on non-integer weights.

The balance loop itself — sweeps, the block-weight allreduce (line 31, the
only communication in Algorithm 1; of the k-vector of deltas when bounds
are on) and influence adaptation — is written once, for any rank
count, in :func:`repro.runtime.distributed_kmeans._kmeans_loop`; the serial
:func:`~repro.core.balanced_kmeans.balanced_kmeans` runs it on one rank.
The per-rank partial sums for the center update and erosion live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import BalancedKMeansConfig
from repro.core.kernels import SweepWorkspace
from repro.core.xp import resolve_kernel_backend

__all__ = [
    "AssignStats",
    "assign_points",
    "center_partial_sums",
    "diameter_partial_sums",
]


def center_partial_sums(
    points: np.ndarray, weights: np.ndarray, assignment: np.ndarray, k: int
) -> np.ndarray:
    """Rank-local ``k x (d+1)`` weighted coordinate sums + weight column.

    The per-rank summand of the center-update allreduce (Algorithm 2, line
    13).  Shared by the in-memory and out-of-core distributed runners —
    both feed the same per-rank arrays through the same bincounts, which is
    what keeps their center trajectories bit-identical.  Accepts memory
    maps: only reads.
    """
    dim = points.shape[1]
    sums = np.empty((k, dim + 1))
    for dd in range(dim):
        sums[:, dd] = np.bincount(assignment, weights=weights * points[:, dd], minlength=k)
    sums[:, dim] = np.bincount(assignment, weights=weights, minlength=k)
    return sums


def diameter_partial_sums(
    points: np.ndarray, weights: np.ndarray, assignment: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Rank-local ``2k`` vector of weighted squared radii and weights.

    Summand of the erosion ``beta(C)`` allreduce (average cluster diameter
    as 2x the rms radius).  Shared across the distributed runners like
    :func:`center_partial_sums`.
    """
    k = centers.shape[0]
    diff = points - centers[assignment]
    sq = np.einsum("ij,ij->i", diff, diff)
    return np.concatenate([
        np.bincount(assignment, weights=sq * weights, minlength=k),
        np.bincount(assignment, weights=weights, minlength=k),
    ])


@dataclass
class AssignStats:
    """Counters validating the §4.3 claim that ~80 % of inner loops are skipped.

    ``blocks_total`` / ``blocks_skipped`` count aggregate *sub-blocks*
    certified unchanged by the incremental engine's block-level filter (a
    skipped sub-block never touches its per-point arrays; both stay 0 when
    the filter is parked or disabled).  ``points_changed`` counts
    assignments that actually flipped — the size of the weight deltas the
    incremental block-weight reduction is built from.
    """

    points_total: int = 0
    points_skipped: int = 0
    center_evals: int = 0
    center_evals_possible: int = 0
    balance_iterations: int = 0
    sweeps: int = 0
    blocks_total: int = 0
    blocks_skipped: int = 0
    points_changed: int = 0

    @property
    def skip_fraction(self) -> float:
        if self.points_total == 0:
            return 0.0
        return self.points_skipped / self.points_total

    @property
    def pruning_fraction(self) -> float:
        """Fraction of center evaluations avoided by bounding-box pruning."""
        if self.center_evals_possible == 0:
            return 0.0
        return 1.0 - self.center_evals / self.center_evals_possible

    def merge(self, other: "AssignStats") -> None:
        self.points_total += other.points_total
        self.points_skipped += other.points_skipped
        self.center_evals += other.center_evals
        self.center_evals_possible += other.center_evals_possible
        self.balance_iterations += other.balance_iterations
        self.sweeps += other.sweeps
        self.blocks_total += other.blocks_total
        self.blocks_skipped += other.blocks_skipped
        self.points_changed += other.points_changed


def _static_block_chunks(need: np.ndarray, workspace: SweepWorkspace) -> list[tuple[np.ndarray, int]]:
    """Split the sorted ``need`` indices along the workspace's static blocks.

    Returns ``(chunk, block_id)`` pairs for every non-empty block, so each
    chunk can look up its precomputed bounding-box candidate set.  One
    ``searchsorted`` over the block boundaries plus ``np.split`` — no
    per-block Python work; this runs once per sweep on the hot path.
    """
    block_size = workspace.block_size
    first = int(need[0]) // block_size
    last = int(need[-1]) // block_size
    if first == last:
        return [(need, first)]
    boundaries = np.arange(first + 1, last + 1, dtype=np.int64) * block_size
    cuts = np.searchsorted(need, boundaries)
    pieces = np.split(need, cuts)
    return [(piece, first + b) for b, piece in enumerate(pieces) if piece.shape[0]]


def _merge_sparse_chunks(
    tasks: list[tuple[np.ndarray, int]], workspace: SweepWorkspace, chunk_size: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Coalesce underfilled per-block chunks of a sparse sweep.

    When few points are active, per-static-block chunks hold a handful of
    points each and Python dispatch dominates the sweep.  Adjacent chunks
    are merged up to ``chunk_size`` points; the merged chunk is pruned with
    the *union* of its blocks' cached candidate sets — a superset of every
    member block's exact §4.4 set, so results are unchanged while dispatch
    count drops by roughly the fill factor.
    """
    mask = workspace._block_cand_mask
    counts = workspace._block_cand_counts
    merged: list[tuple[np.ndarray, np.ndarray]] = []
    acc: list[np.ndarray] = []
    acc_mask = None
    acc_n = 0
    cand_cap = 0

    def flush():
        nonlocal acc, acc_mask, acc_n, cand_cap
        if acc_n:
            chunk = acc[0] if len(acc) == 1 else np.concatenate(acc)
            merged.append((chunk, np.flatnonzero(acc_mask)))
        acc, acc_mask, acc_n, cand_cap = [], None, 0, 0

    for chunk, block in tasks:
        # keep the union candidate set close to the members' own sets: a
        # merge that doubles the candidates costs more in distance work
        # than it saves in dispatch
        if acc_n and (
            acc_n + chunk.shape[0] > chunk_size
            or int(np.count_nonzero(acc_mask | mask[block])) > cand_cap
        ):
            flush()
        acc.append(chunk)
        acc_mask = mask[block].copy() if acc_mask is None else acc_mask | mask[block]
        acc_n += chunk.shape[0]
        cand_cap = max(cand_cap, 2 * int(counts[block]) + 8)
    flush()
    return merged


def assign_points(
    points: np.ndarray,
    centers: np.ndarray,
    influence: np.ndarray,
    assignment: np.ndarray,
    ub: np.ndarray,
    lb: np.ndarray,
    config: BalancedKMeansConfig,
    stats: AssignStats | None = None,
    workspace: SweepWorkspace | None = None,
    weights: np.ndarray | None = None,
    delta_out: np.ndarray | None = None,
) -> int:
    """One assignment sweep; updates ``assignment``/``ub``/``lb`` in place.

    ``workspace`` carries cached geometry across sweeps (and runs); callers
    that sweep more than once over the same points should construct one
    :class:`~repro.core.kernels.SweepWorkspace` and reuse it.  When omitted,
    an ephemeral workspace is built for this sweep only.

    When ``weights`` and ``delta_out`` (a zero-initialised ``(k,)`` float
    array) are both given, the per-cluster weight delta of every assignment
    this sweep *changed* is accumulated into ``delta_out`` — per chunk, in
    block order — so callers can maintain block weights incrementally
    instead of re-bincounting all points.

    Returns the number of points that needed evaluation (the rest were
    certified unchanged by their bounds).
    """
    n = points.shape[0]
    k = centers.shape[0]
    if workspace is None:
        workspace = SweepWorkspace(points, config, k, ephemeral=True)
    elif workspace.points.shape != points.shape:
        raise ValueError(
            f"workspace was built for {workspace.points.shape} points, got {points.shape}"
        )
    else:
        configured = resolve_kernel_backend(getattr(config, "kernel_backend", "numpy"))
        if workspace.backend != configured:
            raise ValueError(
                f"workspace was built for kernel backend {workspace.backend!r} but the "
                f"config now resolves to {configured!r}; build a new SweepWorkspace to "
                "switch backends"
            )
    workspace.prepare(centers, influence)
    collect_delta = delta_out is not None and weights is not None

    # -- fused numba path: one kernel call replaces the chunk orchestration --
    if (
        workspace.backend == "numba"
        and workspace.has_static_blocks
        and config.use_box_pruning
    ):  # pragma: no cover - requires numba
        evaluated, center_evals, delta, changed, blocks_active, blocks_total = workspace.fused_sweep(
            assignment, ub, lb, config.use_bounds, weights if collect_delta else None
        )
        if collect_delta:
            delta_out += delta
        if stats is not None:
            stats.sweeps += 1
            stats.points_total += n
            stats.points_skipped += n - evaluated
            stats.center_evals += center_evals
            stats.center_evals_possible += k * evaluated
            stats.blocks_total += blocks_total
            stats.blocks_skipped += blocks_total - blocks_active
            stats.points_changed += changed
        return evaluated

    # -- active-point selection ---------------------------------------------
    # In incremental mode with valid aggregates, the scan runs only inside
    # woken sub-blocks: a sub-block whose min(lb - ub) is positive is
    # certified unchanged without reading per-point arrays.  The selected
    # set is *identical* to the global flatnonzero(ub >= lb) — the
    # aggregates are conservative by invariant.
    woken: np.ndarray | None = None
    selection = None
    if config.use_bounds:
        selection = workspace.begin_incremental_sweep(assignment, ub, lb)
    if selection is not None:
        need, woken = selection
        need_count = int(need.shape[0])
        if stats is not None:
            stats.blocks_total += workspace.n_subs
            stats.blocks_skipped += workspace.n_subs - int(woken.shape[0])
    elif config.use_bounds:
        need = np.flatnonzero(ub >= lb)
        need_count = int(need.shape[0])
    else:
        need_count = n
        if n > 0:
            need = np.arange(n, dtype=np.int64)
    if stats is not None:
        stats.sweeps += 1
        stats.points_total += n
        stats.points_skipped += n - need_count
    if need_count == 0:
        if woken is not None:
            workspace.end_incremental_sweep(woken, ub, lb)
        elif workspace.incremental and n > 0:
            workspace.maybe_refresh_all(assignment, ub, lb)
        return 0

    def process_chunk(task: tuple[np.ndarray, int]) -> tuple[int, np.ndarray | None, int]:
        chunk, block = task
        # contiguous chunks (the common case on cold sweeps) gather and
        # scatter through slices, avoiding fancy-indexing copies
        if int(chunk[-1]) - int(chunk[0]) + 1 == chunk.shape[0]:
            sel = slice(int(chunk[0]), int(chunk[-1]) + 1)
        else:
            sel = chunk
        cpts = points[sel]
        if isinstance(block, np.ndarray):
            cand = block if block.shape[0] < k else None  # merged-chunk union set
        elif block >= 0:
            cand = workspace.block_candidates(block)
        else:
            cand = None
        old = assignment[sel].copy() if collect_delta else None
        assign, best, second = workspace.top2(cpts, sel, cand)
        assignment[sel] = assign
        ub[sel] = best
        lb[sel] = second
        delta_local = None
        changed_count = 0
        if collect_delta:
            changed = np.flatnonzero(assign != old)
            changed_count = int(changed.shape[0])
            if changed_count:
                wc = weights[sel][changed]
                delta_local = np.bincount(assign[changed], weights=wc, minlength=k)
                delta_local -= np.bincount(old[changed], weights=wc, minlength=k)
        return (k if cand is None else cand.shape[0]), delta_local, changed_count

    if workspace.has_static_blocks and config.use_box_pruning:
        tasks = _static_block_chunks(need, workspace)
        if workspace.incremental and len(tasks) > 4 * (need_count // config.chunk_size + 1):
            tasks = _merge_sparse_chunks(tasks, workspace, config.chunk_size)
    else:
        tasks = [(need[s : s + config.chunk_size], -1) for s in range(0, need.shape[0], config.chunk_size)]
    results = [process_chunk(task) for task in tasks]
    if collect_delta:
        for _, delta_local, _ in results:
            if delta_local is not None:
                delta_out += delta_local
    if stats is not None:
        for (chunk, _), (cand_count, _, changed_count) in zip(tasks, results):
            stats.center_evals += cand_count * chunk.shape[0]
            stats.center_evals_possible += k * chunk.shape[0]
            stats.points_changed += changed_count
    if woken is not None:
        workspace.end_incremental_sweep(woken, ub, lb)
    elif workspace.incremental:
        # a globally scanned sweep: every per-point bound is now current,
        # so the (probe-throttled) aggregate seed can run
        workspace.maybe_refresh_all(assignment, ub, lb)
    return need_count
