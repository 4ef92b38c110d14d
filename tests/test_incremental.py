"""Property tests for the incremental sweep engine.

Three contracts, exercised over randomized influence/relocation sequences:

(a) the delta-maintained block weights equal ``np.bincount`` bit-for-bit
    (integer-valued weights, so every sum is exact in float64);
(b) the sub-block filter is conservative: a sub-block it certifies skipped
    contains only points the per-point Hamerly filter would also skip;
(c) the fused numba sweep matches the numpy engine (skipped cleanly when
    numba is absent).

Plus unit tests for the satellite pieces: the vectorised static-block
chunking, sparse-chunk merging, candidate-local relaxations, and the
end-to-end full-vs-incremental bit identity of :func:`balanced_kmeans`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assign import (
    AssignStats,
    _merge_sparse_chunks,
    _static_block_chunks,
    assign_points,
)
from repro.core.balanced_kmeans import balanced_kmeans
from repro.core.bounds import (
    init_bounds,
    relax_for_influence,
    relax_for_influence_exclusive,
    relax_for_movement,
    relax_for_movement_exclusive,
)
from repro.core.config import BalancedKMeansConfig
from repro.core.kernels import HAVE_NUMBA, SweepWorkspace
from repro.geometry.distances import effective_distances
from repro.runtime.distributed_kmeans import distributed_balanced_kmeans
from repro.sfc.curves import sfc_index


def _sorted_workload(seed, n, k, d=2):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    pts = pts[np.argsort(sfc_index(pts), kind="stable")]
    weights = rng.integers(1, 5, n).astype(np.float64)
    centers = pts[:: max(n // k, 1)][:k].copy()
    return pts, weights, centers, rng


def _drive_sequence(pts, weights, centers, rng, cfg, steps, check=None):
    """Random influence/relocation sequence with delta-maintained weights.

    Each step perturbs influence, relocates a random center, or leaves the
    geometry alone, relaxes the bounds the way the drivers do, sweeps with
    delta collection, and maintains ``block_w`` incrementally.  ``check``
    runs after every sweep with the full engine state.
    """
    k = centers.shape[0]
    ws = SweepWorkspace(pts, cfg, k)
    assignment = np.zeros(pts.shape[0], dtype=np.int64)
    ub, lb = init_bounds(pts.shape[0])
    influence = np.ones(k)
    centers = centers.copy()
    assign_points(pts, centers, influence, assignment, ub, lb, cfg, workspace=ws)
    block_w = np.bincount(assignment, weights=weights, minlength=k)
    for step in range(steps):
        kind = rng.integers(0, 3)
        if kind == 0:  # influence perturbation
            old = influence.copy()
            influence = influence * rng.uniform(0.93, 1.07, k)
            if not ws.queue_relax_influence(assignment, ub, lb, old, influence):
                relax_for_influence_exclusive(ub, lb, assignment, old, influence)
        elif kind == 1:  # relocate one center
            j = int(rng.integers(k))
            deltas = np.zeros(k)
            new_centers = centers.copy()
            new_centers[j] = pts[int(rng.integers(pts.shape[0]))]
            deltas[j] = float(np.linalg.norm(new_centers[j] - centers[j]))
            centers = new_centers
            if not ws.queue_relax_movement(assignment, ub, lb, deltas, influence):
                relax_for_movement_exclusive(ub, lb, assignment, deltas, influence)
        # kind == 2: sweep again with unchanged geometry
        delta = np.zeros(k)
        stats = AssignStats()
        assign_points(pts, centers, influence, assignment, ub, lb, cfg, stats,
                      workspace=ws, weights=weights, delta_out=delta)
        block_w = block_w + delta
        if check is not None:
            check(ws, assignment, ub, lb, block_w, influence, centers, stats)
    return assignment, block_w, influence, centers


class TestDeltaBlockWeights:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(4, 16), n=st.sampled_from([700, 2000]))
    def test_property_incremental_block_w_equals_bincount(self, seed, k, n):
        """(a) delta-maintained weights == np.bincount, bit for bit."""
        pts, weights, centers, rng = _sorted_workload(seed, n, k)
        cfg = BalancedKMeansConfig(chunk_size=128, incremental_block_size=32)

        def check(ws, assignment, ub, lb, block_w, influence, centers, stats):
            expected = np.bincount(assignment, weights=weights, minlength=k)
            assert np.array_equal(block_w, expected), "delta drifted from bincount"

        _drive_sequence(pts, weights, centers, rng, cfg, steps=8, check=check)

    def test_assign_and_balance_block_weights_match_bincount(self):
        """The loop's delta-maintained block weights stay exact across phases."""
        pts, weights, centers, _ = _sorted_workload(3, 3000, 8)
        cfg = BalancedKMeansConfig(chunk_size=256, max_balance_iterations=25)
        for nranks in (1, 3):
            for phases in (1, 3):  # later phases seed from the previous block weights
                res = distributed_balanced_kmeans(pts, 8, nranks, weights=weights, centers=centers,
                                                  config=cfg.with_(max_iterations=phases), rng=0)
                assert np.array_equal(res.block_weights,
                                      np.bincount(res.assignment, weights=weights, minlength=8))


class TestBlockFilterConservative:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(6, 14))
    def test_property_certified_subblocks_contain_only_certified_points(self, seed, k):
        """(b) a skipped sub-block never hides a point the per-point filter
        would evaluate: certified means every point has ub < lb."""
        pts, weights, centers, rng = _sorted_workload(seed, 1500, k)
        cfg = BalancedKMeansConfig(chunk_size=128, incremental_block_size=32)
        seen = {"certified": 0}

        def check(ws, assignment, ub, lb, block_w, influence, centers, stats):
            if not ws.aggregates_valid:
                return
            for s in np.flatnonzero(ws.sub_min_gap > 0.0):
                lo, hi = int(ws.sub_starts[s]), int(ws.sub_ends[s])
                assert np.all(ub[lo:hi] < lb[lo:hi]), (
                    "sub-block certified skipped but contains an active point"
                )
                seen["certified"] += 1

        _drive_sequence(pts, weights, centers, rng, cfg, steps=8, check=check)

    def test_skipped_points_hold_exact_argmin(self):
        """Whatever the filter skips, the assignment equals the brute-force
        argmin under the current influence (the engine's core invariant)."""
        pts, weights, centers, rng = _sorted_workload(17, 1200, 9)
        cfg = BalancedKMeansConfig(chunk_size=128, incremental_block_size=32)

        def check(ws, assignment, ub, lb, block_w, influence, centers, stats):
            expected = effective_distances(pts, centers, influence).argmin(axis=1)
            assert np.array_equal(assignment, expected)

        _drive_sequence(pts, weights, centers, rng, cfg, steps=6, check=check)


class TestFusedNumbaSweep:
    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_fused_sweep_matches_numpy_engine(self):
        """(c) the fused numba sweep agrees with the numpy engine: identical
        assignments and weight deltas, bounds equal to float tolerance (the
        JIT dot product may differ in the last ulp from the GEMM)."""
        pts, weights, centers, rng = _sorted_workload(5, 4000, 16)
        outs = {}
        for backend in ("numpy", "numba"):
            cfg = BalancedKMeansConfig(chunk_size=256, incremental_block_size=64,
                                       kernel_backend=backend)
            k = 16
            ws = SweepWorkspace(pts, cfg, k)
            assignment = np.zeros(4000, dtype=np.int64)
            ub, lb = init_bounds(4000)
            influence = np.ones(k)
            assign_points(pts, centers, influence, assignment, ub, lb, cfg, workspace=ws)
            old = influence.copy()
            influence = influence * np.linspace(0.95, 1.05, k)
            if not ws.queue_relax_influence(assignment, ub, lb, old, influence):
                relax_for_influence_exclusive(ub, lb, assignment, old, influence)
            delta = np.zeros(k)
            assign_points(pts, centers, influence, assignment, ub, lb, cfg,
                          workspace=ws, weights=weights, delta_out=delta)
            outs[backend] = (assignment.copy(), ub.copy(), lb.copy(), delta)
        assert np.array_equal(outs["numpy"][0], outs["numba"][0])
        assert np.allclose(outs["numpy"][1], outs["numba"][1])
        assert np.allclose(outs["numpy"][2], outs["numba"][2])
        assert np.array_equal(outs["numpy"][3], outs["numba"][3])

    def test_numba_request_never_fails(self):
        """Without numba the backend degrades silently and stays incremental."""
        cfg = BalancedKMeansConfig(kernel_backend="numba")
        ws = SweepWorkspace(np.random.default_rng(0).random((600, 2)), cfg, 6)
        assert ws.backend == ("numba" if HAVE_NUMBA else "numpy")
        assert ws.incremental


class TestCandidateLocalRelax:
    """The workspace relaxations keep bounds valid (results exact)."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_relaxed_bounds_remain_valid(self, seed):
        pts, weights, centers, rng = _sorted_workload(seed, 900, 8)
        cfg = BalancedKMeansConfig(chunk_size=128, incremental_block_size=32)
        ws = SweepWorkspace(pts, cfg, 8)
        assignment = np.zeros(900, dtype=np.int64)
        ub, lb = init_bounds(900)
        influence = np.ones(8)
        assign_points(pts, centers, influence, assignment, ub, lb, cfg, workspace=ws)
        old = influence.copy()
        influence = influence * rng.uniform(0.9, 1.1, 8)
        assert ws.queue_relax_influence(assignment, ub, lb, old, influence)
        eff = effective_distances(pts, centers, influence)
        rows = np.arange(900)
        own = eff[rows, assignment]
        eff[rows, assignment] = np.inf
        runner_up = eff.min(axis=1)
        assert np.all(ub >= own - 1e-12), "relaxed ub stopped bounding the own distance"
        assert np.all(lb <= runner_up + 1e-12), "relaxed lb overshot the runner-up"

    def test_eager_exclusive_forms_are_valid_too(self):
        pts, weights, centers, rng = _sorted_workload(23, 700, 7)
        cfg = BalancedKMeansConfig(chunk_size=128, use_box_pruning=False)  # no static blocks
        assignment = np.zeros(700, dtype=np.int64)
        ub, lb = init_bounds(700)
        influence = np.ones(7)
        assign_points(pts, centers, influence, assignment, ub, lb, cfg)
        old = influence.copy()
        influence = influence * rng.uniform(0.9, 1.1, 7)
        relax_for_influence_exclusive(ub, lb, assignment, old, influence)
        deltas = rng.uniform(0.0, 0.01, 7)
        moved = centers + rng.normal(0, 0.004, centers.shape)
        actual = np.linalg.norm(moved - centers, axis=1)
        relax_for_movement_exclusive(ub, lb, assignment, np.maximum(deltas, actual), influence)
        eff = effective_distances(pts, moved, influence)
        rows = np.arange(700)
        own = eff[rows, assignment]
        eff[rows, assignment] = np.inf
        runner_up = eff.min(axis=1)
        assert np.all(ub >= own - 1e-12)
        assert np.all(lb <= runner_up + 1e-12)

    def test_exclusive_returns_match_plain_on_uniform_factors(self):
        """With uniform ratios the exclusive and plain forms coincide."""
        n, k = 300, 5
        rng = np.random.default_rng(1)
        assignment = rng.integers(0, k, n)
        ub1, lb1 = rng.random(n) + 1, rng.random(n)
        ub2, lb2 = ub1.copy(), lb1.copy()
        old, new = np.ones(k), np.full(k, 1.25)
        relax_for_influence(ub1, lb1, assignment, old, new)
        relax_for_influence_exclusive(ub2, lb2, assignment, old, new)
        assert np.array_equal(ub1, ub2)
        assert np.array_equal(lb1, lb2)
        deltas, infl = np.full(k, 0.3), np.ones(k)
        relax_for_movement(ub1, lb1, assignment, deltas, infl)
        relax_for_movement_exclusive(ub2, lb2, assignment, deltas, infl)
        assert np.array_equal(ub1, ub2)
        assert np.array_equal(lb1, lb2)


class TestChunking:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(50, 3000))
    def test_property_static_block_chunks_partition_need(self, seed, n):
        """The searchsorted+split chunking exactly partitions the need set
        and every chunk stays inside its block."""
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 2))
        cfg = BalancedKMeansConfig(chunk_size=64)
        ws = SweepWorkspace(pts, cfg, 4)
        if not ws.has_static_blocks:
            return
        size = int(rng.integers(1, n + 1))
        need = np.sort(rng.choice(n, size=size, replace=False)).astype(np.int64)
        chunks = _static_block_chunks(need, ws)
        assert np.array_equal(np.concatenate([c for c, _ in chunks]), need)
        for chunk, block in chunks:
            assert np.all(chunk // ws.block_size == block)

    def test_merged_chunks_cover_need_and_superset_candidates(self):
        pts, weights, centers, rng = _sorted_workload(9, 4000, 12)
        cfg = BalancedKMeansConfig(chunk_size=256, incremental_block_size=64)
        ws = SweepWorkspace(pts, cfg, 12)
        ws.prepare(centers, np.ones(12))
        need = np.sort(rng.choice(4000, size=180, replace=False)).astype(np.int64)
        tasks = _static_block_chunks(need, ws)
        merged = _merge_sparse_chunks(tasks, ws, cfg.chunk_size)
        assert np.array_equal(np.concatenate([c for c, _ in merged]), need)
        assert len(merged) <= len(tasks)
        # each merged chunk's candidate set covers every member block's set
        for chunk, cand in merged:
            for block in np.unique(chunk // ws.block_size):
                own = ws.block_candidates(int(block))
                if own is not None:
                    assert np.isin(own, cand).all()


class TestEndToEndIdentity:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_balanced_kmeans_full_vs_incremental(self, weighted):
        rng = np.random.default_rng(5)
        pts = rng.random((12000, 2))
        w = rng.integers(1, 5, 12000).astype(np.float64) if weighted else None
        res = {}
        for inc in (False, True):
            cfg = BalancedKMeansConfig(use_incremental=inc)
            res[inc] = balanced_kmeans(pts, 16, weights=w, rng=2, config=cfg)
        assert np.array_equal(res[False].assignment, res[True].assignment)
        assert np.array_equal(res[False].centers, res[True].centers)
        assert np.array_equal(res[False].influence, res[True].influence)
        assert res[False].imbalance == res[True].imbalance
        assert res[False].iterations == res[True].iterations

    def test_non_divisor_sub_block_size_stays_exact(self):
        """Sub-blocks are cut within static blocks even when
        incremental_block_size does not divide chunk_size (regression: a
        sub-block spanning two blocks applied the wrong block's candidate
        factors to its tail points)."""
        rng = np.random.default_rng(31)
        pts = rng.random((6000, 2))
        w = rng.integers(1, 4, 6000).astype(np.float64)
        inc_cfg = BalancedKMeansConfig(use_incremental=True, chunk_size=300,
                                       incremental_block_size=256)
        ws = SweepWorkspace(pts, inc_cfg, 10)
        assert np.all(ws.sub_starts // ws.block_size
                      == (ws.sub_ends - 1) // ws.block_size), "sub-block spans two blocks"
        a = balanced_kmeans(pts, 10, weights=w, rng=4, config=inc_cfg)
        b = balanced_kmeans(pts, 10, weights=w, rng=4,
                            config=inc_cfg.with_(use_incremental=False))
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.influence, b.influence)

    def test_incremental_inert_without_static_blocks(self):
        """No box pruning -> no static blocks -> the engine degrades silently."""
        pts = np.random.default_rng(8).random((2000, 2))
        cfg = BalancedKMeansConfig(use_incremental=True, use_box_pruning=False)
        ws = SweepWorkspace(pts, cfg, 6)
        assert not ws.incremental
        res = balanced_kmeans(pts, 6, rng=0, config=cfg)
        assert res.imbalance <= 0.031

