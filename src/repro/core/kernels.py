"""Kernel engine for the assignment sweep: cached geometry + the top-2 kernel.

The assignment sweep (Algorithm 1's inner loop) is the hot path of the whole
partitioner, and most of its inputs are invariant across large parts of a
run:

- per-point squared norms never change while the point set is fixed
  (computed once per :class:`SweepWorkspace`);
- per-center squared norms and the block-box-to-center distance ranges only
  change when the *centers* move (once per assign-and-balance phase, not per
  balance iteration);
- ``influence ** -2`` and the box-pruning candidate sets only change once
  per sweep (not per chunk);
- the ``(chunk, k)`` distance scratch can be preallocated once and reused
  via ``out=`` kwargs.

:class:`SweepWorkspace` owns all of that cached state and threads it through
:func:`repro.core.assign.assign_points`; the actual top-2 reduction is a
vectorised two-pass masked ``argmin`` over the scaled squared-distance
matrix (see :func:`repro.geometry.distances.top2_effective`).

Static SFC block decomposition (§4.4 accelerated): the Algorithm 2 loop
processes points in space-filling-curve order, so the workspace cuts them
once into fixed ``chunk_size`` blocks and caches each block's bounding
box *and* its raw squared min/max distances to every center (refreshed only
when centers move).  A balance iteration then derives its pruning candidate
sets by rescaling those ranges with the current ``influence ** -2`` — a
``(nblocks, k)`` elementwise pass — instead of re-deriving boxes from raw
points for every chunk of every sweep.

Incremental sweep engine (on whenever ``config.use_bounds`` is): three
cooperating pieces on top of the static blocks.

1. *Candidate-local relaxations* — the big lever.  Between balance
   iterations the classic Hamerly relaxation shrinks every point's
   runner-up bound by the global worst case (``lb *= ratio.min()``), so a
   single cluster adapting at the influence cap forces periodic
   re-evaluation of the entire point set.  The workspace instead builds,
   per static block, factors over that block's §4.4 *candidate set* only
   (a per-(block, cluster) table excluding the point's own cluster) plus a
   chained distance floor covering every non-candidate — every
   non-candidate center provably sits farther than ``sqrt`` of the block's
   pruning threshold, and the floor composes across influence/movement ops.
   Influence or movement changes in one region then stop invalidating
   bounds everywhere (about 3x fewer point evaluations than the
   global-factor relaxation on the balance-bench trajectory).  Each
   relaxation applies eagerly to every point and adjusts the sub-block
   aggregates below analytically.

2. *Sub-block certification* — per fixed-size sub-block
   (``incremental_block_size`` points) the workspace keeps the smallest
   Hamerly gap ``min_gap = min(lb - ub)`` and the largest own-distance
   bound ``max_ub``.  A sub-block with ``min_gap > 0`` provably contains
   only filter-certified points and is skipped without reading per-point
   arrays; aggregates refresh right after a sweep touches a sub-block and
   are adjusted analytically by each relaxation.  When most sub-blocks
   wake anyway (active balancing), the filter parks itself — aggregates
   drop and a periodic probe (every 8th globally-scanned sweep) rebuilds
   them to notice when the trajectory has gone quiet.

3. *Weight deltas* — sweeps report the per-cluster weight delta of the
   assignments they changed, so block weights are maintained by addition
   instead of a full ``bincount`` per balance iteration (exact for
   integer-valued weights; see the config docstring).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.bounds import _eff_deltas, _influence_ratio
from repro.geometry.boxes import block_bounds, blocks_min_max_sq
from repro.geometry.distances import top2_effective

__all__ = ["SweepWorkspace"]

# when at least this fraction of sub-blocks wakes for a sweep, the per-region
# select/refresh machinery costs more than it saves: the filter parks itself
# (aggregates drop; the periodic probe in maybe_refresh_all rebuilds them)
_WAKE_BYPASS_FRACTION = 0.375


def _multi_arange(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], ends[i])`` without a Python loop."""
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if lens.shape[0] > 1:
        cml = np.cumsum(lens[:-1])
        out[cml] = starts[1:] - ends[:-1] + 1
    return np.cumsum(out)


class SweepWorkspace:
    """Sweep-invariant cached geometry for assignment sweeps over one point set.

    Lifetimes of the cached pieces:

    ==========================  =========================================
    cached                      recomputed when
    ==========================  =========================================
    ``points_sq``               never (points are fixed per workspace)
    static block boxes          never (SFC order is fixed per workspace)
    ``centers_sq``, block       :meth:`begin_phase` — i.e. when the center
    min/max squared ranges      array changes (checked by identity)
    ``inv_influence_sq``,       every :meth:`prepare` call (per sweep)
    pruning candidate sets
    scratch buffers             never (allocated lazily on first use)
    ==========================  =========================================

    Center changes are detected by object identity, so callers that mutate a
    center array *in place* must call :meth:`begin_phase` explicitly (the
    Algorithm 2 loop hands every phase a fresh center array instead).

    ``ephemeral=True`` marks a workspace built for a single sweep (e.g. by
    ``assign_points`` when none was supplied, or on worker-process ranks):
    the incremental block-bound aggregates are disabled there, since they
    only pay off when they survive across sweeps.

    Input points are promoted to C-contiguous float64.
    """

    def __init__(self, points: np.ndarray, config, k: int, ephemeral: bool = False):
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self.k = int(k)
        self.config = config
        self.points_sq = np.einsum("ij,ij->i", self.points, self.points)
        self._bufs: tuple[np.ndarray, np.ndarray] | None = None
        self._centers_ref: np.ndarray | None = None
        self.centers: np.ndarray | None = None
        self.centers_sq: np.ndarray | None = None
        self.influence: np.ndarray | None = None
        self.inv_influence_sq: np.ndarray | None = None
        # static SFC block decomposition (boxes computed once per run);
        # empty point sets (e.g. an empty rank in the distributed runtime)
        # have nothing to sweep, so no blocks
        self.block_size = int(config.chunk_size)
        self.has_static_blocks = bool(
            config.use_box_pruning and self.k > 2 and self.points.shape[0] > 0
        )
        if self.has_static_blocks:
            self.block_lo, self.block_hi = block_bounds(self.points, self.block_size)
            self.n_blocks = self.block_lo.shape[0]
            # aggregate sub-blocks: the incremental filter's granularity.
            # Finer than the static (candidate-set) blocks because a
            # sub-block only skips when *every* point in it is certified.
            self.sub_size = min(self.block_size, int(getattr(config, "incremental_block_size", self.block_size)))
            n = self.points.shape[0]
            # sub-blocks are cut *within* each static block (the last sub of
            # a block may be short): a sub-block must never span two blocks,
            # or block-local candidate factors would be applied to points of
            # the neighbouring block
            starts = [
                np.arange(s, min(s + self.block_size, n), self.sub_size, dtype=np.int64)
                for s in range(0, n, self.block_size)
            ]
            self.sub_starts = np.concatenate(starts)
            self.n_subs = self.sub_starts.shape[0]
            self.sub_ends = np.empty_like(self.sub_starts)
            self.sub_ends[:-1] = self.sub_starts[1:]
            self.sub_ends[-1] = n
            self.sub_blocks = self.sub_starts // self.block_size  # parent static block
        else:
            self.block_lo = self.block_hi = None
            self.n_blocks = 0
            self.sub_size = self.block_size
            self.n_subs = 0
            self.sub_starts = self.sub_ends = self.sub_blocks = None
        self._block_min_sq: np.ndarray | None = None
        self._block_max_sq: np.ndarray | None = None
        self._block_cand_mask: np.ndarray | None = None
        self._block_cand_counts: np.ndarray | None = None
        self._block_cand_cache: dict[int, np.ndarray | None] = {}
        self._block_floor: np.ndarray | None = None
        # incremental engine: per-sub-block bound aggregates (valid only
        # after a full refresh).  A sub-block whose smallest per-point bound
        # gap ``min(lb - ub)`` is positive provably contains only
        # filter-certified points and is skipped whole; ``max_ub`` rides
        # along so relaxations, which apply eagerly to every point, can
        # adjust the gap analytically.
        self.incremental = bool(
            self.has_static_blocks
            and not ephemeral
            and getattr(config, "use_bounds", True)
        )
        self.sub_min_gap: np.ndarray | None = None
        self.sub_max_ub: np.ndarray | None = None
        self._point_block: np.ndarray | None = None  # point -> static block, built lazily
        self._refresh_probe = 0
        # aggregates describe one specific (assignment, ub, lb) array
        # triple; if a caller sweeps with different arrays, the state
        # silently resets (first sweep on the new arrays is a full scan).
        # Weak references, not ids: a dead-and-reallocated array must never
        # masquerade as the original.
        self._bound_token: tuple | None = None

    # -- warm reuse ---------------------------------------------------------

    #: Config fields the workspace's cached state actually depends on.  Two
    #: configs that agree here produce byte-identical workspaces; fields like
    #: epsilon/use_sampling/seeding live outside the workspace entirely, so a
    #: warm workspace may serve e.g. partitions at different epsilons of the
    #: same session.
    _CONFIG_FIELDS = (
        "chunk_size", "use_box_pruning", "incremental_block_size", "use_bounds",
    )

    def _config_signature(self, config) -> tuple:
        return tuple(getattr(config, f, None) for f in self._CONFIG_FIELDS)

    def matches(self, points: np.ndarray, config, k: int) -> bool:
        """True when this workspace was built for exactly this sweep problem.

        A workspace may be kept warm across whole runs (the service layer
        keeps one per session) **only** for identical points, identical
        ``k``, and a config agreeing on every workspace-relevant field
        (:attr:`_CONFIG_FIELDS`) — the cached ``points_sq`` and static
        block boxes belong to those points, and the chunking and pruning come
        from that config.  The value comparison makes a reused workspace
        safe even when the caller re-derives the sorted point array each
        call.  Callers must still :meth:`invalidate_block_bounds` before
        reuse so stale incremental aggregates from the previous run are
        dropped (they only affect skip statistics, never results, but
        start each run clean).
        """
        if self.k != int(k):
            return False
        if self._config_signature(self.config) != self._config_signature(config):
            return False
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.shape != pts.shape:
            return False
        return self.points is pts or bool(np.array_equal(self.points, pts))

    # -- phase / sweep setup ------------------------------------------------

    def begin_phase(self, centers: np.ndarray) -> None:
        """Cache geometry that only depends on the centers (once per phase)."""
        if centers.shape[0] != self.k:
            raise ValueError(f"expected {self.k} centers, got {centers.shape[0]}")
        self._centers_ref = centers
        self.centers = np.ascontiguousarray(centers, dtype=np.float64)
        self.centers_sq = np.einsum("ij,ij->i", self.centers, self.centers)
        if self.has_static_blocks:
            self._block_min_sq, self._block_max_sq = blocks_min_max_sq(
                self.block_lo, self.block_hi, self.centers
            )

    def prepare(self, centers: np.ndarray, influence: np.ndarray) -> None:
        """Per-sweep setup: refresh center caches if needed, rescale for influence."""
        if centers is not self._centers_ref:
            self.begin_phase(centers)
        influence = np.asarray(influence, dtype=np.float64)
        if np.any(influence <= 0):
            raise ValueError("influence values must be strictly positive")
        self.influence = influence
        self.inv_influence_sq = influence**-2.0
        self._block_cand_cache.clear()
        if self.has_static_blocks:
            # exact §4.4 rule in squared space, all blocks at once: a center
            # whose min effective distance to the box exceeds the
            # second-smallest max effective distance can be neither best nor
            # runner-up for any point in the box.
            min_eff = self._block_min_sq * self.inv_influence_sq[None, :]
            max_eff = self._block_max_sq * self.inv_influence_sq[None, :]
            threshold = np.partition(max_eff, 1, axis=1)[:, 1]
            self._block_cand_mask = min_eff <= threshold[:, None]
            self._block_cand_counts = self._block_cand_mask.sum(axis=1)
            # per-block certainty radius for the incremental engine: every
            # non-candidate center c of block b satisfies eff(p, c) > T_b
            # for all p in the block (min_eff(c, box) > threshold in squared
            # space), so relaxations only need the worst case over the
            # block's own candidates plus a T_b-based floor for everything
            # else.  The floor chains through the relaxations between two
            # sweeps (see queue_relax_*) and resets here, at every sweep.
            self._block_floor = np.sqrt(threshold)

    # -- pruning ------------------------------------------------------------

    def block_candidates(self, block: int) -> np.ndarray | None:
        """Candidate centers for static block ``block`` under the current sweep.

        Returns ``None`` for "evaluate all centers" (no pruning possible).
        """
        if self._block_cand_mask is None:
            return None
        if self._block_cand_counts[block] >= self.k:
            return None
        cached = self._block_cand_cache.get(block, False)
        if cached is False:
            cached = np.flatnonzero(self._block_cand_mask[block])
            self._block_cand_cache[block] = cached
        return cached

    # -- incremental sub-block bound aggregates + relaxations ---------------

    @property
    def aggregates_valid(self) -> bool:
        """True once every sub-block's ``min_gap`` / ``max_ub`` reflects the bounds."""
        return self.sub_min_gap is not None

    def _stamp_bound_arrays(self, assignment: np.ndarray, ub: np.ndarray, lb: np.ndarray) -> None:
        self._bound_token = (weakref.ref(assignment), weakref.ref(ub), weakref.ref(lb))

    def _check_bound_arrays(self, assignment: np.ndarray, ub: np.ndarray, lb: np.ndarray) -> bool:
        """True when the aggregates describe exactly these arrays; resets otherwise."""
        token = self._bound_token
        if (
            token is None
            or token[0]() is not assignment
            or token[1]() is not ub
            or token[2]() is not lb
        ):
            self.invalidate_block_bounds()
            return False
        return True

    def maybe_refresh_all(self, assignment: np.ndarray, ub: np.ndarray, lb: np.ndarray) -> None:
        """Probe-throttled aggregate (re)seed after a globally-scanned sweep.

        While the trajectory is wake-heavy the sub-block filter cannot
        certify anything, so recomputing aggregates every sweep would be
        pure overhead; instead the filter stays dormant and re-probes every
        few sweeps (one O(n) reduceat) to notice when the trajectory has
        gone quiet.
        """
        if not self.incremental:
            return
        self._refresh_probe += 1
        if self._refresh_probe >= 8:
            self._refresh_probe = 0
            self.refresh_all_block_bounds(assignment, ub, lb)
        else:
            self.sub_min_gap = None
            self.sub_max_ub = None
            self._bound_token = None

    def refresh_all_block_bounds(self, assignment: np.ndarray, ub: np.ndarray, lb: np.ndarray) -> None:
        """Recompute every sub-block aggregate from the per-point bounds (O(n)).

        Relaxations apply eagerly, so the per-point arrays are always
        current; assign_points calls this after a sweep that ran with
        invalid aggregates.
        """
        if not self.incremental:
            return
        self.sub_min_gap = np.minimum.reduceat(lb - ub, self.sub_starts)
        self.sub_max_ub = np.maximum.reduceat(ub, self.sub_starts)
        self._stamp_bound_arrays(assignment, ub, lb)

    def _apply_relax(
        self,
        kind: str,
        per_cluster: np.ndarray,
        table: np.ndarray,
        floor_b: np.ndarray,
        assignment: np.ndarray,
        ub: np.ndarray,
        lb: np.ndarray,
    ) -> None:
        """Apply one candidate-local relaxation to every point (in place).

        ``per_cluster`` adjusts the own-center bound exactly
        (ratio-multiply for influence ops, effective-movement-add for
        movement ops); ``table[block, cluster]`` holds the runner-up factor
        over the block's candidates excluding the cluster, and ``floor_b``
        caps the bound for runner-ups outside the candidate set.
        """
        if self._point_block is None:
            self._point_block = (
                np.arange(self.points.shape[0], dtype=np.int64) // self.block_size
            ).astype(np.int32)
        pb = self._point_block
        if kind == "infl":
            ub *= per_cluster[assignment]
            lb *= table[pb, assignment]
            np.minimum(lb, floor_b[pb], out=lb)
        else:
            ub += per_cluster[assignment]
            lb -= table[pb, assignment]
            np.minimum(lb, floor_b[pb], out=lb)
            np.maximum(lb, 0.0, out=lb)

    def _masked_bottom2(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-block ``(argmin, min, second-min)`` of ``values`` over each
        block's candidate set (rows of ``_block_cand_mask``)."""
        masked = np.where(self._block_cand_mask, values[None, :], np.inf)
        j_b = masked.argmin(axis=1)
        rows = np.arange(masked.shape[0])
        lo_b = masked[rows, j_b].copy()
        masked[rows, j_b] = np.inf
        lo2_b = masked.min(axis=1)
        return j_b, lo_b, lo2_b

    def queue_relax_influence(
        self,
        assignment: np.ndarray,
        ub: np.ndarray,
        lb: np.ndarray,
        old_influence: np.ndarray,
        new_influence: np.ndarray,
    ) -> bool:
        """Apply a candidate-local influence relaxation.

        Every point's assigned center is inside its block's §4.4 candidate
        set (it is the exact argmin), and every *non*-candidate center sits
        farther than the block floor, so the runner-up bound only needs the
        smallest ratio over the block's own candidates (excluding the
        point's cluster, via a per-block top-2) capped by the chained
        floor — an influence change in one region no longer invalidates
        bounds everywhere, which is what keeps quiet regions skippable.
        Aggregates (when valid) adjust analytically in ``O(n_subs)``; the
        per-point update applies in one contiguous vectorised pass.
        Returns False when the engine is off or the candidate geometry is
        unavailable (no sweep has run yet); callers must then relax with
        :func:`repro.core.bounds.relax_for_influence`.
        """
        if not self.incremental or self._block_cand_mask is None or self._block_floor is None:
            return False
        track = self.aggregates_valid and self._check_bound_arrays(assignment, ub, lb)
        ratio = _influence_ratio(old_influence, new_influence)
        mask = self._block_cand_mask
        j_b, lo_b, lo2_b = self._masked_bottom2(ratio)
        hi_b = np.where(mask, ratio[None, :], -np.inf).max(axis=1)
        g_b = np.where(mask, np.inf, ratio[None, :]).min(axis=1)
        # chain the non-candidate floor: eff > floor held before this op,
        # and every non-candidate's effective distance scales by >= g_b
        # (g_b is inf when the block has no non-candidates: its floor is
        # unused, so scale by 1 to avoid a spurious 0 * inf)
        self._block_floor = self._block_floor * np.where(np.isfinite(g_b), g_b, 1.0)
        floor_b = np.where(np.isfinite(g_b), self._block_floor, np.inf)
        # factor table: factor for a point in block b assigned to cluster c
        # = min ratio over cand(b) \ {c} (the own cluster never bounds its
        # own runner-up)
        table = np.broadcast_to(lo_b[:, None], mask.shape).copy()
        table[np.arange(mask.shape[0]), j_b] = lo2_b
        if track:
            # gap'(p) = lb' - ub' >= min(lo*lb - hi*ub, floor - hi*ub)
            #         >= min(lo*gap_min - (hi - lo)*max_ub, floor - hi*max_ub)
            parent = self.sub_blocks
            lo = lo_b[parent]
            hi = hi_b[parent]
            scaled_ub = self.sub_max_ub * hi
            self.sub_min_gap = np.minimum(
                self.sub_min_gap * lo - (hi - lo) * self.sub_max_ub,
                floor_b[parent] - scaled_ub,
            )
            self.sub_max_ub = scaled_ub
        self._apply_relax("infl", ratio, table, floor_b, assignment, ub, lb)
        return True

    def queue_relax_movement(
        self,
        assignment: np.ndarray,
        ub: np.ndarray,
        lb: np.ndarray,
        deltas: np.ndarray,
        influence: np.ndarray,
    ) -> bool:
        """Apply a candidate-local center-movement relaxation.

        Mirrors :meth:`queue_relax_influence`: the runner-up bound shrinks
        by the largest effective movement over the block's candidates other
        than the point's own cluster, capped by the chained non-candidate
        floor minus the largest non-candidate movement.  Returns False
        (callers then use :func:`repro.core.bounds.relax_for_movement`)
        under the same conditions.
        """
        if not self.incremental or self._block_cand_mask is None or self._block_floor is None:
            return False
        track = self.aggregates_valid and self._check_bound_arrays(assignment, ub, lb)
        eff_delta = _eff_deltas(deltas, influence)
        mask = self._block_cand_mask
        j_b, nd1, nd2 = self._masked_bottom2(-eff_delta)
        d1_b = -nd1
        d2_b = np.where(np.isfinite(nd2), -nd2, 0.0)
        e_b = np.where(mask, -np.inf, eff_delta[None, :]).max(axis=1)
        self._block_floor = np.where(np.isfinite(e_b), self._block_floor - e_b, self._block_floor)
        np.maximum(self._block_floor, 0.0, out=self._block_floor)
        floor_b = np.where(np.isfinite(e_b), self._block_floor, np.inf)
        table = np.broadcast_to(d1_b[:, None], mask.shape).copy()
        table[np.arange(mask.shape[0]), j_b] = d2_b
        if track:
            # gap'(p) >= min(gap_min - 2*d1, floor - max_ub - d1); ub' <= max_ub + d1
            parent = self.sub_blocks
            d1 = d1_b[parent]
            grown_ub = self.sub_max_ub + d1
            self.sub_min_gap = np.minimum(self.sub_min_gap - 2.0 * d1, floor_b[parent] - grown_ub)
            self.sub_max_ub = grown_ub
        self._apply_relax("move", eff_delta, table, floor_b, assignment, ub, lb)
        return True

    def invalidate_block_bounds(self) -> None:
        """Forget the sub-block aggregates.

        For callers that overwrite ``ub``/``lb`` wholesale (bound reset,
        empty-cluster reseed, warm workspace reuse): the aggregates no
        longer describe the bounds, so the next sweep scans globally and
        re-seeds them.
        """
        self.sub_min_gap = None
        self.sub_max_ub = None
        self._bound_token = None

    def begin_incremental_sweep(
        self, assignment: np.ndarray, ub: np.ndarray, lb: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Active-point selection via the sub-block filter.

        Returns ``(need, woken)`` — the indices needing evaluation and the
        woken sub-block ids — or ``None`` when the aggregates are invalid
        (caller falls back to the global scan).  Relaxations apply eagerly
        to every point and the aggregates are conservative, so the
        resulting ``need`` set is identical to the global
        ``flatnonzero(ub >= lb)``.
        """
        if not self.incremental or not self.aggregates_valid:
            return None
        if not self._check_bound_arrays(assignment, ub, lb):
            return None
        mask = self.sub_min_gap <= 0.0
        woken = np.flatnonzero(mask)
        if woken.size == 0:
            return np.empty(0, dtype=np.int64), woken
        if woken.size >= _WAKE_BYPASS_FRACTION * self.n_subs:
            # wake-heavy sweep: the filter cannot pay for itself — scan
            # globally, drop the aggregates, and let the periodic probe in
            # maybe_refresh_all notice when the trajectory goes quiet.
            # (Relaxations apply eagerly, so per-point bounds are always
            # current.)
            self.sub_min_gap = None
            self.sub_max_ub = None
            self._bound_token = None
            return None
        region = _multi_arange(self.sub_starts[woken], self.sub_ends[woken])
        need = region[ub[region] >= lb[region]]
        return need, woken

    def end_incremental_sweep(self, woken: np.ndarray, ub: np.ndarray, lb: np.ndarray) -> None:
        """Refresh the woken sub-blocks' aggregates from their swept bounds."""
        if woken.size == self.n_subs:
            self.sub_min_gap = np.minimum.reduceat(lb - ub, self.sub_starts)
            self.sub_max_ub = np.maximum.reduceat(ub, self.sub_starts)
        elif woken.size:
            starts = self.sub_starts[woken]
            ends = self.sub_ends[woken]
            region = _multi_arange(starts, ends)
            local = np.concatenate([[0], np.cumsum(ends - starts)[:-1]])
            self.sub_min_gap[woken] = np.minimum.reduceat(lb[region] - ub[region], local)
            self.sub_max_ub[woken] = np.maximum.reduceat(ub[region], local)

    # -- kernels ------------------------------------------------------------

    def _scratch(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(chunk_size, k)`` distance scratch, allocated on first use."""
        if self._bufs is None:
            self._bufs = (
                np.empty((self.block_size, self.k)),
                np.empty((self.block_size, self.k)),
            )
        return self._bufs

    def top2(
        self,
        chunk_points: np.ndarray,
        chunk_idx: np.ndarray | slice,
        candidate_idx: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Top-2 effective distances for one chunk, using all cached geometry.

        ``chunk_idx`` selects the chunk's rows within the workspace point set
        (index array or slice) so the cached per-point norms line up with
        ``chunk_points``.
        """
        p_sq = self.points_sq[chunk_idx]
        sq_out = scaled_out = None
        if candidate_idx is None and chunk_points.shape[0] <= self.block_size:
            sq_out, scaled_out = self._scratch()
        return top2_effective(
            chunk_points,
            self.centers,
            self.influence,
            candidate_idx,
            p_sq=p_sq,
            c_sq=self.centers_sq,
            inv_influence_sq=self.inv_influence_sq,
            sq_out=sq_out,
            scaled_out=scaled_out,
        )
