"""Device-resident torch sweep engine (``torch-cpu`` / ``torch-cuda`` backends).

The assignment sweep is embarrassingly data-parallel, so on the torch
backends the whole inner loop — Hamerly bound test, squared-space masked
top-2, bound writes, weight-delta accumulation, block-weight reduction and
the influence relaxation between balance iterations — runs on device
tensors.  The residency contract mirrors the host workspace's cache
lifetimes, with the host boundary crossed as rarely as the cache is
recomputed:

====================================  =====================================
device tensor                         crosses the host boundary
====================================  =====================================
points, squared norms, block boxes,   once per engine (= per workspace;
point→block map                       never re-uploaded)
weights                               once per engine (cached by identity)
assignment, ub, lb                    once per phase *session* (uploaded by
                                      :meth:`begin_session`, downloaded by
                                      :meth:`end_session`); per sweep only
                                      outside a session
centers, center norms, block          once per phase (:meth:`begin_phase`)
min/max squared ranges
influence, ``influence**-2``,         once per sweep (k-sized)
candidate masks
block-weight / delta k-vectors        once per sweep (k-sized, downloads)
====================================  =====================================

:class:`repro.core.kernels.SweepWorkspace` owns one engine per point set and
the Algorithm 2 loop brackets each phase's balance iterations in a session
on every driver-resident rank, so across balance iterations only k-sized
vectors move — the "transferred once per phase (not per sweep)" model.
Callers that sweep without a session (worker-process ranks, whose
ephemeral workspaces live for one sweep) get per-sweep bound transfers.

Every transfer is counted in :attr:`transfer_log` (tag → count/bytes per
direction), which is how the equivalence tests assert the residency model
instead of trusting this docstring.

Numerics: all tensors are float64 and every elementwise op (clamp, sqrt,
divide) matches the host kernels exactly; only the matmul's accumulation
order may differ from the host GEMM, so results match the host backends to
the last ulp away from floating-point near-ties (same caveat as the numba
backend) — the equivalence gate asserts identical assignments and block
weights, centers within 1e-9.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.bounds import _influence_ratio
from repro.core.xp import torch_runtime

__all__ = ["TorchSweepEngine"]

# rows per top-2 launch: bounds the (rows, k) squared/scaled temporaries
# (64k x 64 doubles = 32 MiB each) while keeping launches large enough to
# saturate a device
_CHUNK_ROWS = 65536


class TorchSweepEngine:
    """Device-side mirror of one :class:`~repro.core.kernels.SweepWorkspace`.

    Constructed once per workspace with the static geometry (points, squared
    norms, block boxes, point→block map), which is uploaded exactly once.
    ``rank`` feeds per-rank device affinity on ``torch-cuda`` (device index
    ``rank % device_count``; see :func:`repro.core.xp.torch_runtime`).
    """

    def __init__(
        self,
        backend: str,
        points: np.ndarray,
        points_sq: np.ndarray,
        block_lo: np.ndarray | None,
        block_hi: np.ndarray | None,
        point_block: np.ndarray | None,
        k: int,
        rank: int | None = None,
        chunk_rows: int = _CHUNK_ROWS,
    ):
        self.backend = backend
        self.torch, self.device = torch_runtime(backend, rank)
        self.k = int(k)
        self.n = int(points.shape[0])
        self.chunk_rows = int(chunk_rows)
        self.transfer_log: dict[str, dict[str, list[int]]] = {"h2d": {}, "d2h": {}}
        t = self.torch
        self.d_points = self._h2d(points, "points")
        self.d_points_sq = self._h2d(points_sq, "points")
        self.has_blocks = block_lo is not None and point_block is not None
        if self.has_blocks:
            self.d_block_lo = self._h2d(block_lo, "points")
            self.d_block_hi = self._h2d(block_hi, "points")
            self.d_point_block = self._h2d(point_block, "points")
        else:
            self.d_block_lo = self.d_block_hi = self.d_point_block = None
        # per-phase / per-sweep state (set by begin_phase / prepare)
        self.d_centers_t: "t.Tensor | None" = None
        self.d_centers_sq = None
        self.d_influence = None
        self.d_inv2 = None
        self.d_block_min_sq = self.d_block_max_sq = None
        self.d_cand_mask = self.d_cand_counts = None
        # session state (begin_session / end_session)
        self._session: tuple[weakref.ref, weakref.ref, weakref.ref] | None = None
        self.d_assign = self.d_ub = self.d_lb = None
        # weights are fixed per run like the points: cached by identity
        self._weights_ref: weakref.ref | None = None
        self.d_weights = None

    # -- transfer accounting -------------------------------------------------

    def _count(self, direction: str, tag: str, nbytes: int) -> None:
        entry = self.transfer_log[direction].setdefault(tag, [0, 0])
        entry[0] += 1
        entry[1] += int(nbytes)

    def _h2d(self, array: np.ndarray, tag: str):
        tensor = self.torch.from_numpy(np.ascontiguousarray(array)).to(self.device)
        self._count("h2d", tag, array.nbytes)
        return tensor

    def _d2h(self, tensor, tag: str, out: np.ndarray | None = None) -> np.ndarray:
        host = tensor.cpu().numpy()
        self._count("d2h", tag, host.nbytes)
        if out is not None:
            out[...] = host
            return out
        return host

    def transfer_stats(self) -> dict[str, dict[str, dict[str, int]]]:
        """Transfer counts/bytes per direction and tag (for tests and docs)."""
        return {
            direction: {tag: {"count": c, "bytes": b} for tag, (c, b) in tags.items()}
            for direction, tags in self.transfer_log.items()
        }

    # -- phase / sweep setup ---------------------------------------------------

    def begin_phase(self, centers: np.ndarray, centers_sq: np.ndarray) -> None:
        """Upload the centers and derive the block distance ranges on device."""
        t = self.torch
        self.d_centers_t = self._h2d(centers, "phase").T.contiguous()
        self.d_centers_sq = self._h2d(centers_sq, "phase")
        if self.has_blocks:
            # blocks_min_max_sq, elementwise-identical on device
            c = self.d_centers_t.T.unsqueeze(0)  # (1, k, d)
            lo = self.d_block_lo.unsqueeze(1)  # (nblocks, 1, d)
            hi = self.d_block_hi.unsqueeze(1)
            below = t.clamp(lo - c, min=0.0)
            above = t.clamp(c - hi, min=0.0)
            self.d_block_min_sq = (below * below + above * above).sum(-1)
            farthest = t.maximum((c - lo).abs(), (c - hi).abs())
            self.d_block_max_sq = (farthest * farthest).sum(-1)

    def prepare(self, influence: np.ndarray, inv_influence_sq: np.ndarray) -> None:
        """Per-sweep k-sized uploads + the §4.4 candidate masks on device."""
        t = self.torch
        self.d_influence = self._h2d(influence, "sweep")
        self.d_inv2 = self._h2d(inv_influence_sq, "sweep")
        self.d_cand_mask = self.d_cand_counts = None
        if self.has_blocks and self.k > 2 and self.d_block_min_sq is not None:
            min_eff = self.d_block_min_sq * self.d_inv2.unsqueeze(0)
            max_eff = self.d_block_max_sq * self.d_inv2.unsqueeze(0)
            threshold = t.kthvalue(max_eff, 2, dim=1).values
            self.d_cand_mask = min_eff <= threshold.unsqueeze(1)
            self.d_cand_counts = self.d_cand_mask.sum(dim=1)

    # -- bound-array sessions --------------------------------------------------

    @property
    def in_session(self) -> bool:
        return self._session is not None

    def begin_session(
        self,
        assignment: np.ndarray,
        ub: np.ndarray,
        lb: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Upload the per-point state once for a whole balance loop."""
        if self._session is not None:
            raise RuntimeError("a device session is already active")
        self.d_assign = self._h2d(assignment, "session")
        self.d_ub = self._h2d(ub, "session")
        self.d_lb = self._h2d(lb, "session")
        if weights is not None:
            self._ensure_weights(weights)
        self._session = (weakref.ref(assignment), weakref.ref(ub), weakref.ref(lb))

    def end_session(self) -> None:
        """Flush the device state back into the session's host arrays."""
        if self._session is None:
            return
        a_ref, ub_ref, lb_ref = self._session
        a, ub, lb = a_ref(), ub_ref(), lb_ref()
        if a is not None:
            self._d2h(self.d_assign, "session", out=a)
        if ub is not None:
            self._d2h(self.d_ub, "session", out=ub)
        if lb is not None:
            self._d2h(self.d_lb, "session", out=lb)
        self._session = None
        self.d_assign = self.d_ub = self.d_lb = None

    def _session_matches(self, assignment: np.ndarray, ub: np.ndarray, lb: np.ndarray) -> bool:
        if self._session is None:
            return False
        a_ref, ub_ref, lb_ref = self._session
        return a_ref() is assignment and ub_ref() is ub and lb_ref() is lb

    def _ensure_weights(self, weights: np.ndarray):
        if self._weights_ref is None or self._weights_ref() is not weights:
            self.d_weights = self._h2d(np.asarray(weights, dtype=np.float64), "weights")
            self._weights_ref = weakref.ref(weights)
        return self.d_weights

    # -- kernels ---------------------------------------------------------------

    def sweep(
        self,
        assignment: np.ndarray,
        ub: np.ndarray,
        lb: np.ndarray,
        use_bounds: bool,
        weights: np.ndarray | None = None,
    ) -> tuple[int, int, int, np.ndarray | None]:
        """One whole assignment sweep on device.

        Inside a session the host arrays are *not* touched (they are stale
        until :meth:`end_session`); outside one, bounds are uploaded before
        and downloaded after the sweep.  Returns ``(evaluated,
        center_evals, changed, delta)`` where ``delta`` is the per-cluster
        weight delta of the changed assignments (``None`` unless ``weights``
        is given) — a k-sized download, the only per-sweep result transfer.
        """
        session = self._session is not None
        if session and not self._session_matches(assignment, ub, lb):
            raise RuntimeError(
                "device sweep called with arrays other than the active session's; "
                "end the session first"
            )
        if not session:
            self.d_assign = self._h2d(assignment, "bounds")
            self.d_ub = self._h2d(ub, "bounds")
            self.d_lb = self._h2d(lb, "bounds")
        try:
            result = self._sweep_core(use_bounds, weights)
        finally:
            if not session:
                self._d2h(self.d_assign, "bounds", out=assignment)
                self._d2h(self.d_ub, "bounds", out=ub)
                self._d2h(self.d_lb, "bounds", out=lb)
                self.d_assign = self.d_ub = self.d_lb = None
        return result

    def _sweep_core(
        self, use_bounds: bool, weights: np.ndarray | None
    ) -> tuple[int, int, int, np.ndarray | None]:
        t = self.torch
        k = self.k
        collect = weights is not None
        delta = t.zeros(k, dtype=t.float64, device=self.device) if collect else None
        if self.n == 0:
            return 0, 0, 0, (self._d2h(delta, "sweep") if collect else None)
        d_w = self._ensure_weights(weights) if collect else None
        if use_bounds:
            need = t.nonzero(self.d_ub >= self.d_lb).squeeze(1)
        else:
            need = t.arange(self.n, device=self.device)
        evaluated = int(need.numel())
        if evaluated == 0:
            return 0, 0, 0, (self._d2h(delta, "sweep") if collect else None)
        changed_total = t.zeros((), dtype=t.int64, device=self.device)
        center_evals = t.zeros((), dtype=t.int64, device=self.device)
        inf = float("inf")
        for start in range(0, evaluated, self.chunk_rows):
            idx = need[start : start + self.chunk_rows]
            pts = self.d_points.index_select(0, idx)
            sq = (
                self.d_points_sq.index_select(0, idx).unsqueeze(1)
                - 2.0 * (pts @ self.d_centers_t)
                + self.d_centers_sq.unsqueeze(0)
            )
            sq.clamp_(min=0.0)
            scaled = sq * self.d_inv2.unsqueeze(0)
            if self.d_cand_mask is not None:
                mask = self.d_cand_mask.index_select(0, self.d_point_block.index_select(0, idx))
                scaled = scaled.masked_fill(~mask, inf)
                center_evals += mask.sum()
            else:
                center_evals += k * idx.numel()
            s0, j0 = scaled.min(dim=1)
            sq0 = sq.gather(1, j0.unsqueeze(1)).squeeze(1)
            new_ub = t.sqrt(sq0) / self.d_influence.index_select(0, j0)
            if k == 1:
                new_lb = t.full_like(new_ub, inf)
            else:
                scaled.scatter_(1, j0.unsqueeze(1), inf)
                _, j1 = scaled.min(dim=1)
                sq1 = sq.gather(1, j1.unsqueeze(1)).squeeze(1)
                new_lb = t.sqrt(sq1) / self.d_influence.index_select(0, j1)
            old = self.d_assign.index_select(0, idx)
            changed = j0 != old
            changed_total += changed.sum()
            self.d_assign.index_copy_(0, idx, j0)
            self.d_ub.index_copy_(0, idx, new_ub)
            self.d_lb.index_copy_(0, idx, new_lb)
            if collect:
                wc = d_w.index_select(0, idx)[changed]
                delta.index_add_(0, j0[changed], wc)
                delta.index_add_(0, old[changed], -wc)
        return (
            evaluated,
            int(center_evals.item()),
            int(changed_total.item()),
            self._d2h(delta, "sweep") if collect else None,
        )

    def block_weights(self, assignment: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-cluster weight sums (``bincount``) on device; k-sized download."""
        t = self.torch
        if self._session is not None:
            if self._session[0]() is not assignment:
                raise RuntimeError("block_weights called with a non-session assignment")
            d_assign = self.d_assign
        else:
            d_assign = self._h2d(assignment, "bounds")
        d_w = self._ensure_weights(weights)
        out = t.zeros(self.k, dtype=t.float64, device=self.device)
        if self.n:
            out.index_add_(0, d_assign, d_w)
        return self._d2h(out, "sweep")

    def relax_influence(
        self, old_influence: np.ndarray, new_influence: np.ndarray
    ) -> tuple[float, float]:
        """:func:`repro.core.bounds.relax_for_influence` on the session tensors.

        Same math, same order of operations — the ratio is computed on the
        host (k-sized) and applied on device, so host and device trajectories
        stay elementwise identical.
        """
        if self._session is None:
            raise RuntimeError("relax_influence requires an active device session")
        ratio = _influence_ratio(old_influence, new_influence)
        lo = float(ratio.min())
        hi = float(ratio.max())
        if self.n:
            d_ratio = self._h2d(ratio, "sweep")
            self.d_ub *= d_ratio.index_select(0, self.d_assign)
            self.d_lb *= lo
        return hi, lo
