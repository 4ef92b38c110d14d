"""Balanced k-means (Algorithm 2), serial entry point.

There is one Algorithm 1/2 loop in the package,
:func:`repro.runtime.distributed_kmeans._kmeans_loop`, written once for any
number of ranks (§4.1: the parallel code *is* the algorithm).
:func:`balanced_kmeans` is that loop on one virtual rank: it validates the
input, sorts the points along the space-filling curve (the one-rank case of
the distributed sort and redistribution), computes random or k-means++
initial centers when the seeding ablation asks for them, and runs the loop
over plain driver arrays.  Its results equal
``distributed_balanced_kmeans(..., nranks=1)`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BalancedKMeansConfig
from repro.core.kernels import SweepWorkspace
from repro.core.result import KMeansResult
from repro.core.seeding import seed_centers
from repro.runtime.checkpoint import CheckpointStore, data_digest, load_resume
from repro.runtime.comm import VirtualComm
from repro.runtime.distributed_kmeans import (
    CHECKPOINT_KIND,
    SharedStorage,
    _kmeans_loop,
    _redistribute,
    _run_context,
)
from repro.sfc.curves import sfc_index
from repro.util.timers import StageTimer
from repro.util.validation import check_k, check_points, check_weights, normalize_targets

__all__ = ["balanced_kmeans", "compute_sfc_order"]


def compute_sfc_order(points: np.ndarray, config: BalancedKMeansConfig | None = None) -> np.ndarray:
    """The stable SFC sort order :func:`balanced_kmeans` derives from ``points``.

    Long-lived callers (the partitioning service) compute this once per
    dataset and pass it back via ``sfc_order=`` so repeated runs over fixed
    geometry skip the per-call Hilbert/Morton index + argsort.
    """
    cfg = config or BalancedKMeansConfig()
    pts = check_points(points)
    return np.argsort(sfc_index(pts, curve=cfg.sfc_curve, bits=cfg.sfc_bits), kind="stable")


def balanced_kmeans(
    points: np.ndarray,
    k: int,
    weights: np.ndarray | None = None,
    config: BalancedKMeansConfig | None = None,
    rng: int | np.random.Generator | None = None,
    target_weights: np.ndarray | None = None,
    centers: np.ndarray | None = None,
    checkpoint: CheckpointStore | str | None = None,
    checkpoint_every: int = 1,
    resume_from: CheckpointStore | str | None = None,
    workspace: SweepWorkspace | None = None,
    sfc_order: np.ndarray | None = None,
) -> KMeansResult:
    """Partition ``points`` into ``k`` balanced clusters (Algorithm 2).

    Parameters
    ----------
    points:
        ``(n, d)`` coordinates, d in {2, 3}.
    k:
        Number of clusters; independent of any process count.
    weights:
        Optional per-point loads; cluster *weights* are balanced.
    target_weights:
        Optional per-cluster target weights (footnote 1: heterogeneous
        architectures); defaults to ``total_weight / k`` each.
    centers:
        Optional warm-start centers overriding the configured seeding; a
        warm start also skips the sampled initialisation rounds.
    checkpoint / checkpoint_every / resume_from:
        Snapshot the main-loop state every ``checkpoint_every`` iterations
        into ``checkpoint`` (a :class:`~repro.runtime.checkpoint
        .CheckpointStore` or directory path); ``resume_from`` restarts from
        such a snapshot with the final assignment, centers, influence and
        imbalance bit-identical to the uninterrupted run (per-iteration
        skip/pruning statistics may differ — the fresh kernel workspace
        rebuilds its pruning caches, which never changes results).  The
        checkpoint is validated against the configuration and input data
        with a loud mismatch error.  A serial checkpoint is a one-shard
        distributed checkpoint: ``distributed_balanced_kmeans`` resumes it
        on any rank count, and this function resumes multi-shard ones.
    workspace:
        Optional warm :class:`~repro.core.kernels.SweepWorkspace` from a
        previous run over the *identical* (SFC-sorted points, config, k)
        triple — validated via :meth:`~repro.core.kernels.SweepWorkspace
        .matches`, with a loud error on mismatch.  Reuse skips rebuilding
        point norms and static block boxes; results are bit-identical
        either way (workspace state only affects skip statistics).
    sfc_order:
        Optional precomputed :func:`compute_sfc_order` result for
        ``points``; skips the per-call SFC index + argsort.  The caller
        asserts it equals what this call would compute — a wrong order
        changes seeding and block locality (not correctness of balance,
        but results would differ from a cold call).

    Returns
    -------
    :class:`~repro.core.result.KMeansResult`
    """
    cfg = config or BalancedKMeansConfig()
    pts = check_points(points)
    n = pts.shape[0]
    k = check_k(k, n)
    w = check_weights(weights, n)
    timers = StageTimer()
    targets = normalize_targets(target_weights, k, w.sum())
    explicit = () if target_weights is None else (targets,)
    input_digest = data_digest(pts, w, *explicit, extra=f"n={n},k={k}")

    # one virtual rank built here, never through make_comm: REPRO_BACKEND and
    # REPRO_FAULTS can neither reroute nor fault-inject a serial call
    comm = VirtualComm(1)
    with _run_context(1, comm, None, None, None, cfg=cfg, rng=rng, n=n, k=k,
                      kind=CHECKPOINT_KIND, input_digest=input_digest, checkpoint=checkpoint,
                      checkpoint_every=checkpoint_every, resume_from=resume_from,
                      provenance=None, load=load_resume) as (grid, gen, ckpt):
        if k == 1:
            return KMeansResult(
                assignment=np.zeros(n, dtype=np.int64),
                centers=((w[:, None] * pts).sum(axis=0) / w.sum())[None, :],
                influence=np.ones(1),
                iterations=0,
                converged=True,
                imbalance=0.0,
                timers=timers,
            )
        storage = SharedStorage(grid)
        seeds = None
        if grid.nranks == 1:
            # SFC sort for chunk locality + seeding (Algorithm 2, lines 4-7)
            if sfc_order is None:
                with timers.stage("sfc_index"):
                    order = compute_sfc_order(pts, cfg)
            else:
                order = np.asarray(sfc_order, dtype=np.int64)
                if order.shape != (n,):
                    raise ValueError(f"sfc_order must have shape ({n},), got {order.shape}")
            with timers.stage("redistribute"):
                work_pts = pts[order]
                work_w = w[order]
            layout = ([storage.put("pts", 0, work_pts)], [storage.put("w", 0, work_w)], [order],
                      work_pts.min(axis=0), work_pts.max(axis=0))
            if centers is None and ckpt.resume is None and cfg.seeding != "sfc":
                with timers.stage("seeding"):
                    seeds = seed_centers(work_pts, k, cfg.seeding, gen)
        else:  # a multi-shard checkpoint resumes over its own shard grid
            layout = _redistribute(grid, storage, pts, w, cfg)
        history: list = []
        result, _ = _kmeans_loop(grid, storage, *layout, k, cfg, gen, centers, ckpt,
                                 targets=targets, seeds=seeds, workspace=workspace,
                                 history=history, timers=timers)
    return KMeansResult(
        assignment=result.assignment,
        centers=result.centers,
        influence=result.influence,
        iterations=result.iterations,
        converged=result.converged,
        imbalance=result.imbalance,
        history=history,
        timers=timers,
    )
