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

Incremental sweep engine (on whenever ``config.use_bounds`` is): two
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
   relaxation applies eagerly to every point, so the sweep's per-point
   Hamerly test ``ub >= lb`` always reads current bounds.

2. *Weight deltas* — sweeps report the per-cluster weight delta of the
   assignments they changed, so block weights are maintained by addition
   instead of a full ``bincount`` per balance iteration (exact for
   integer-valued weights; see the config docstring).
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import _eff_deltas, _influence_ratio
from repro.geometry.boxes import block_bounds, blocks_min_max_sq
from repro.geometry.distances import top2_effective

__all__ = ["SweepWorkspace"]


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
    ``assign_points`` when none was supplied, or on worker-process and spill
    ranks): it turns off the candidate-local relaxations and sparse-chunk
    merging, whose per-block candidate geometry only pays off when it
    survives across sweeps.

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
        else:
            self.block_lo = self.block_hi = None
            self.n_blocks = 0
        self._block_min_sq: np.ndarray | None = None
        self._block_max_sq: np.ndarray | None = None
        self._block_cand_mask: np.ndarray | None = None
        self._block_cand_counts: np.ndarray | None = None
        self._block_cand_cache: dict[int, np.ndarray | None] = {}
        self._block_floor: np.ndarray | None = None
        # incremental engine: candidate-local relaxations and sparse-chunk
        # merging, both built on the static blocks' candidate sets
        self.incremental = bool(
            self.has_static_blocks
            and not ephemeral
            and getattr(config, "use_bounds", True)
        )
        self._point_block: np.ndarray | None = None  # point -> static block, built lazily

    # -- warm reuse ---------------------------------------------------------

    #: Config fields the workspace's cached state actually depends on.  Two
    #: configs that agree here produce byte-identical workspaces; fields like
    #: epsilon/use_sampling/seeding live outside the workspace entirely, so a
    #: warm workspace may serve e.g. partitions at different epsilons of the
    #: same session.
    _CONFIG_FIELDS = (
        "chunk_size", "use_box_pruning", "use_bounds",
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
        call.
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

    # -- candidate-local relaxations ----------------------------------------

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
        The per-point update applies in one contiguous vectorised pass.
        Returns False when the engine is off or the candidate geometry is
        unavailable (no sweep has run yet); callers must then relax with
        :func:`repro.core.bounds.relax_for_influence`.
        """
        if not self.incremental or self._block_cand_mask is None or self._block_floor is None:
            return False
        ratio = _influence_ratio(old_influence, new_influence)
        mask = self._block_cand_mask
        j_b, lo_b, lo2_b = self._masked_bottom2(ratio)
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
        self._apply_relax("move", eff_delta, table, floor_b, assignment, ub, lb)
        return True

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
