"""Property tests for the incremental sweep engine.

Two contracts, exercised over randomized influence/relocation sequences:

(a) the delta-maintained block weights equal ``np.bincount`` bit-for-bit
    (integer-valued weights, so every sum is exact in float64);
(b) the per-point Hamerly filter is conservative: after every sweep each
    point holds its brute-force argmin, computed from direct coordinate
    differences rather than the sweep's squared-norm expansion, on both
    the candidate-local and the cluster-exact relaxation path.

Plus unit tests for the satellite pieces: the vectorised static-block
chunking, sparse-chunk merging, candidate-local relaxations, and the
end-to-end bit identity of :func:`balanced_kmeans` with the §4.3 ablation
(``use_bounds=False``: no bounds, no engine, a fresh ``bincount`` of the
block weights every balance iteration), cold and along a warm
repartitioning trajectory.
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
from repro.core.bounds import init_bounds, relax_for_influence, relax_for_movement
from repro.core.config import BalancedKMeansConfig
from repro.core.kernels import SweepWorkspace
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
                relax_for_influence(ub, lb, assignment, old, influence)
        elif kind == 1:  # relocate one center
            j = int(rng.integers(k))
            deltas = np.zeros(k)
            new_centers = centers.copy()
            new_centers[j] = pts[int(rng.integers(pts.shape[0]))]
            deltas[j] = float(np.linalg.norm(new_centers[j] - centers[j]))
            centers = new_centers
            if not ws.queue_relax_movement(assignment, ub, lb, deltas, influence):
                relax_for_movement(ub, lb, assignment, deltas, influence)
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
        cfg = BalancedKMeansConfig(chunk_size=128)

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
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 14), use_box_pruning=st.booleans())
    def test_skipped_points_hold_exact_argmin(self, seed, k, use_box_pruning):
        """Whatever the filter skips, the assignment equals the brute-force
        argmin under the current influence (the engine's core invariant),
        and the bounds of every point still bracket its distances.

        With pruning on (and ``k > 2``) the bounds relax through the
        candidate-local forms; without static blocks the cluster-exact
        ``relax_for_*`` run instead.
        """
        pts, weights, centers, rng = _sorted_workload(seed, 1200, k)
        cfg = BalancedKMeansConfig(chunk_size=128, use_box_pruning=use_box_pruning)
        rows = np.arange(pts.shape[0])

        def check(ws, assignment, ub, lb, block_w, influence, centers, stats):
            assert ws.incremental == (use_box_pruning and k > 2)
            eff = np.linalg.norm(pts[:, None] - centers[None], axis=2) / influence
            assert np.array_equal(assignment, eff.argmin(axis=1))
            own = eff[rows, assignment].copy()
            eff[rows, assignment] = np.inf
            # the sweep's bounds come from the squared-norm expansion, so
            # allow its rounding against the direct differences
            assert np.all(ub >= own - 1e-9), "ub stopped bounding the own distance"
            assert np.all(lb <= eff.min(axis=1) + 1e-9), "lb overshot the runner-up"

        _drive_sequence(pts, weights, centers, rng, cfg, steps=6, check=check)


class TestCandidateLocalRelax:
    """The workspace relaxations keep bounds valid (results exact)."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_relaxed_bounds_remain_valid(self, seed):
        pts, weights, centers, rng = _sorted_workload(seed, 900, 8)
        cfg = BalancedKMeansConfig(chunk_size=128)
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
        relax_for_influence(ub, lb, assignment, old, influence)
        deltas = rng.uniform(0.0, 0.01, 7)
        moved = centers + rng.normal(0, 0.004, centers.shape)
        actual = np.linalg.norm(moved - centers, axis=1)
        relax_for_movement(ub, lb, assignment, np.maximum(deltas, actual), influence)
        eff = effective_distances(pts, moved, influence)
        rows = np.arange(700)
        own = eff[rows, assignment]
        eff[rows, assignment] = np.inf
        runner_up = eff.min(axis=1)
        assert np.all(ub >= own - 1e-12)
        assert np.all(lb <= runner_up + 1e-12)


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
        cfg = BalancedKMeansConfig(chunk_size=256)
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


def _assert_same_run(a, b):
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.influence, b.influence)
    assert a.imbalance == b.imbalance
    assert a.iterations == b.iterations
    assert [h.balance_iterations for h in a.history] == [h.balance_iterations for h in b.history]


class TestEndToEndIdentity:
    """The engine against the §4.3 ablation: integer weights make every
    block-weight sum exact, so the two must agree bit for bit."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_balanced_kmeans_full_vs_incremental(self, weighted):
        rng = np.random.default_rng(5)
        pts = rng.random((12000, 2))
        w = rng.integers(1, 5, 12000).astype(np.float64) if weighted else None
        res = {}
        for use_bounds in (False, True):
            cfg = BalancedKMeansConfig(use_bounds=use_bounds)
            res[use_bounds] = balanced_kmeans(pts, 16, weights=w, rng=2, config=cfg)
        _assert_same_run(res[False], res[True])

    def test_warm_trajectory_matches_no_bounds(self):
        """The balance bench's trajectory at n=20k, k=32: a settle run, then
        warm repartitions under a moving hot spot (integer weights bumped
        4x) that reuse one workspace and the SFC order."""
        n, k = 20_000, 32
        pts, base_w, centers0, _ = _sorted_workload(11, n, k)
        order = np.arange(n)  # the points are already in SFC order
        side = np.sqrt(0.002)
        trails = {}
        for use_bounds in (True, False):
            cfg = BalancedKMeansConfig(use_bounds=use_bounds, max_balance_iterations=70)
            ws = SweepWorkspace(pts, cfg, k)

            def run(weights, centers, phases):
                return balanced_kmeans(pts, k, weights=weights, rng=0, centers=centers,
                                       config=cfg.with_(max_iterations=phases),
                                       workspace=ws, sfc_order=order)

            result = run(base_w, centers0, 12)
            trail = [result]
            for r in range(4):
                cx = 0.15 + 0.7 * r / 3
                hot = (np.abs(pts[:, 0] - cx) < side / 2) & (np.abs(pts[:, 1] - 0.5) < side / 2)
                w = base_w.copy()
                w[hot] *= 4.0
                result = run(w, result.centers, 3)
                trail.append(result)
            trails[use_bounds] = trail
        for engine, reference in zip(trails[True], trails[False]):
            _assert_same_run(engine, reference)

    def test_non_divisor_sub_block_size_stays_exact(self):
        """A block size that is no power of two still matches the ablation:
        block-local candidate factors reach exactly the points of their own
        static block."""
        rng = np.random.default_rng(31)
        pts = rng.random((6000, 2))
        w = rng.integers(1, 4, 6000).astype(np.float64)
        inc_cfg = BalancedKMeansConfig(chunk_size=300)
        a = balanced_kmeans(pts, 10, weights=w, rng=4, config=inc_cfg)
        b = balanced_kmeans(pts, 10, weights=w, rng=4,
                            config=inc_cfg.with_(use_bounds=False))
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.influence, b.influence)

    def test_incremental_inert_without_static_blocks(self):
        """No box pruning -> no static blocks -> the engine degrades silently."""
        pts = np.random.default_rng(8).random((2000, 2))
        cfg = BalancedKMeansConfig(use_box_pruning=False)
        ws = SweepWorkspace(pts, cfg, 6)
        assert not ws.incremental
        res = balanced_kmeans(pts, 6, rng=0, config=cfg)
        assert res.imbalance <= 0.031

