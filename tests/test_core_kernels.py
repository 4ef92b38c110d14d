"""Tests for the kernel engine (squared-space top-2 + SweepWorkspace).

The central claim: the squared-space kernel with every cache enabled returns
*bit-identical* ``(assign, ub, lb)`` to the reference
``effective_distances``-based path, across candidate subsets and workspace
configurations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assign import assign_points
from repro.core.balanced_kmeans import balanced_kmeans
from repro.core.bounds import init_bounds
from repro.core.config import BalancedKMeansConfig
from repro.core.kernels import SweepWorkspace
from repro.geometry.boxes import BoundingBox, block_bounds, blocks_min_max_sq
from repro.geometry.distances import (
    effective_distances,
    top2_effective,
    top2_effective_reference,
)


def _random_case(seed, n, k, d, infl_lo=0.5, infl_hi=2.0):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    centers = rng.random((k, d))
    influence = rng.uniform(infl_lo, infl_hi, k)
    return pts, centers, influence


class TestSquaredSpaceBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 200),
        k=st.integers(1, 24),
        d=st.sampled_from([2, 3]),
        wide_influence=st.booleans(),
    )
    def test_property_matches_reference(self, seed, n, k, d, wide_influence):
        lo, hi = (0.01, 100.0) if wide_influence else (0.5, 2.0)
        pts, centers, influence = _random_case(seed, n, k, d, lo, hi)
        ref = top2_effective_reference(pts, centers, influence)
        new = top2_effective(pts, centers, influence)
        for r, x, name in zip(ref, new, ("assign", "ub", "lb")):
            assert np.array_equal(r, x), f"{name} differs from reference"

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(3, 12))
    def test_property_candidate_subset_matches_reference(self, seed, k):
        pts, centers, influence = _random_case(seed, 60, k, 2)
        rng = np.random.default_rng(seed + 1)
        cand = np.sort(rng.choice(k, size=rng.integers(2, k + 1), replace=False))
        ref = top2_effective_reference(pts, centers, influence, cand)
        new = top2_effective(pts, centers, influence, cand)
        for r, x in zip(ref, new):
            assert np.array_equal(r, x)

    def test_k_equals_1(self):
        pts, centers, influence = _random_case(0, 50, 1, 2)
        ref = top2_effective_reference(pts, centers, influence)
        new = top2_effective(pts, centers, influence)
        assert np.array_equal(ref[0], new[0])
        assert np.array_equal(ref[1], new[1])
        assert np.all(np.isinf(new[2]))

    def test_single_candidate(self):
        pts, centers, influence = _random_case(1, 20, 6, 2)
        cand = np.array([3])
        assign, best, second = top2_effective(pts, centers, influence, cand)
        assert np.all(assign == 3)
        assert np.all(np.isinf(second))
        ref = top2_effective_reference(pts, centers, influence, cand)
        assert np.array_equal(ref[1], best)

    def test_cached_geometry_kwargs_are_bit_identical(self):
        pts, centers, influence = _random_case(2, 300, 16, 2)
        plain = top2_effective(pts, centers, influence)
        p_sq = np.einsum("ij,ij->i", pts, pts)
        c_sq = np.einsum("ij,ij->i", centers, centers)
        inv2 = influence**-2.0
        sq_out = np.empty((300, 16))
        scaled_out = np.empty((300, 16))
        cached = top2_effective(
            pts, centers, influence,
            p_sq=p_sq, c_sq=c_sq, inv_influence_sq=inv2,
            sq_out=sq_out, scaled_out=scaled_out,
        )
        for a, b in zip(plain, cached):
            assert np.array_equal(a, b)

    def test_rejects_nonpositive_influence(self):
        pts, centers, _ = _random_case(3, 10, 4, 2)
        with pytest.raises(ValueError):
            top2_effective(pts, centers, np.array([1.0, 0.0, 1.0, 1.0]))


class TestSweepWorkspace:
    def test_phase_cache_refreshes_on_new_centers(self):
        pts, centers, influence = _random_case(5, 400, 8, 2)
        cfg = BalancedKMeansConfig(chunk_size=64)
        ws = SweepWorkspace(pts, cfg, 8)
        ws.prepare(centers, influence)
        first_c_sq = ws.centers_sq.copy()
        moved = centers + 0.1
        ws.prepare(moved, influence)
        assert not np.array_equal(first_c_sq, ws.centers_sq)

    def test_inplace_center_mutation_via_begin_phase(self):
        pts, centers, influence = _random_case(6, 200, 6, 2)
        cfg = BalancedKMeansConfig(chunk_size=64)
        ws = SweepWorkspace(pts, cfg, 6)
        ws.prepare(centers, influence)
        centers[0] += 5.0  # identity check alone would miss this
        ws.begin_phase(centers)
        assert np.allclose(ws.centers_sq, np.einsum("ij,ij->i", centers, centers))

    def test_workspace_reuse_is_bit_identical_to_fresh(self):
        """Reusing one workspace across sweeps must equal fresh construction."""
        pts, centers, influence = _random_case(7, 1000, 10, 2)
        cfg = BalancedKMeansConfig(chunk_size=128)
        shared = SweepWorkspace(pts, cfg, 10)
        for infl_scale in (1.0, 1.1, 0.9):
            infl = influence * infl_scale
            out_shared, out_fresh = [], []
            for ws in (shared, SweepWorkspace(pts, cfg, 10)):
                assignment = np.zeros(len(pts), dtype=np.int64)
                ub, lb = init_bounds(len(pts))
                assign_points(pts, centers, infl, assignment, ub, lb, cfg, workspace=ws)
                out_shared.append((assignment.copy(), ub.copy(), lb.copy()))
            for a, b in zip(out_shared[0], out_shared[1]):
                assert np.array_equal(a, b)

    def test_reuse_across_sweeps(self):
        """A second sweep on the unchanged problem only tightens the bounds."""
        pts = np.random.default_rng(17).random((128, 2))
        cfg = BalancedKMeansConfig()
        ws = SweepWorkspace(pts, cfg, 4)
        centers = ws.points[np.random.default_rng(0).choice(128, 4, replace=False)].copy()
        assignment = np.zeros(128, dtype=np.int64)
        ub, lb = init_bounds(128)
        first = assign_points(ws.points, centers, np.ones(4), assignment, ub, lb, cfg, workspace=ws)
        second = assign_points(ws.points, centers, np.ones(4), assignment, ub, lb, cfg, workspace=ws)
        assert first == 128
        assert second <= first

    def test_static_blocks_only_with_box_pruning(self):
        pts = np.random.default_rng(8).random((300, 2))
        on = SweepWorkspace(pts, BalancedKMeansConfig(use_box_pruning=True, chunk_size=64), 8)
        off = SweepWorkspace(pts, BalancedKMeansConfig(use_box_pruning=False, chunk_size=64), 8)
        assert on.has_static_blocks and not off.has_static_blocks
        assert on.n_blocks == int(np.ceil(300 / 64))

    def test_static_block_pruning_matches_unpruned(self):
        """Static-block candidate sets are exact: assignments cannot change."""
        rng = np.random.default_rng(9)
        from repro.sfc.curves import sfc_index

        pts = rng.random((2000, 2))
        pts = pts[np.argsort(sfc_index(pts), kind="stable")]
        centers = rng.random((16, 2))
        influence = rng.uniform(0.5, 2.0, 16)
        base = BalancedKMeansConfig(chunk_size=128)
        ref = effective_distances(pts, centers, influence).argmin(axis=1)
        for use_pruning in (True, False):
            cfg = base.with_(use_box_pruning=use_pruning)
            assignment = np.zeros(len(pts), dtype=np.int64)
            ub, lb = init_bounds(len(pts))
            assign_points(pts, centers, influence, assignment, ub, lb, cfg)
            assert np.array_equal(assignment, ref)

    def test_static_blocks_prune(self):
        """On SFC-sorted data the cached block boxes actually drop centers."""
        rng = np.random.default_rng(10)
        from repro.sfc.curves import sfc_index

        pts = rng.random((4000, 2))
        pts = pts[np.argsort(sfc_index(pts), kind="stable")]
        centers = rng.random((32, 2))
        ws = SweepWorkspace(pts, BalancedKMeansConfig(chunk_size=256), 32)
        ws.prepare(centers, np.ones(32))
        cand_sizes = [len(c) if (c := ws.block_candidates(b)) is not None else 32
                      for b in range(ws.n_blocks)]
        assert min(cand_sizes) < 32

    def test_empty_point_set(self):
        """An empty rank (distributed runtime) must sweep as a no-op."""
        cfg = BalancedKMeansConfig()  # pruning on: the static-block path
        empty = np.empty((0, 2))
        ws = SweepWorkspace(empty, cfg, 4)
        assert not ws.has_static_blocks
        centers = np.random.default_rng(16).random((4, 2))
        assignment = np.zeros(0, dtype=np.int64)
        ub, lb = init_bounds(0)
        evaluated = assign_points(empty, centers, np.ones(4), assignment, ub, lb, cfg, workspace=ws)
        assert evaluated == 0

    def test_workspace_rejects_wrong_k(self):
        ws = SweepWorkspace(np.random.default_rng(11).random((50, 2)),
                            BalancedKMeansConfig(), 4)
        with pytest.raises(ValueError):
            ws.begin_phase(np.zeros((5, 2)))


class TestInputNormalization:
    """float32 / non-contiguous inputs are promoted to C-contiguous float64."""

    def test_float32_points_promoted(self):
        cfg = BalancedKMeansConfig()
        pts32 = np.random.default_rng(3).random((300, 2)).astype(np.float32)
        ws = SweepWorkspace(pts32, cfg, 4)
        assert ws.points.dtype == np.float64
        assert ws.points.flags["C_CONTIGUOUS"]
        ref = balanced_kmeans(pts32.astype(np.float64), 4, config=cfg, rng=1)
        got = balanced_kmeans(pts32, 4, config=cfg, rng=1)
        np.testing.assert_array_equal(ref.assignment, got.assignment)
        np.testing.assert_array_equal(ref.centers, got.centers)

    def test_noncontiguous_points_promoted(self):
        cfg = BalancedKMeansConfig()
        base = np.random.default_rng(4).random((600, 4))
        strided = base[::2, ::2]  # non-contiguous view, shape (300, 2)
        assert not strided.flags["C_CONTIGUOUS"]
        ws = SweepWorkspace(strided, cfg, 4)
        assert ws.points.flags["C_CONTIGUOUS"]
        ref = balanced_kmeans(np.ascontiguousarray(strided), 4, config=cfg, rng=2)
        got = balanced_kmeans(strided, 4, config=cfg, rng=2)
        np.testing.assert_array_equal(ref.assignment, got.assignment)
        np.testing.assert_array_equal(ref.centers, got.centers)


class TestBlockBoxes:
    def test_block_bounds_cover_blocks(self):
        pts = np.random.default_rng(12).random((250, 3))
        lo, hi = block_bounds(pts, 64)
        assert lo.shape == (4, 3)
        for b in range(4):
            blk = pts[b * 64 : (b + 1) * 64]
            assert np.allclose(lo[b], blk.min(axis=0))
            assert np.allclose(hi[b], blk.max(axis=0))

    def test_blocks_min_max_sq_matches_boundingbox(self):
        rng = np.random.default_rng(13)
        pts = rng.random((200, 2))
        centers = rng.random((7, 2))
        lo, hi = block_bounds(pts, 50)
        min_sq, max_sq = blocks_min_max_sq(lo, hi, centers)
        for b in range(4):
            bb = BoundingBox(lo[b], hi[b])
            assert np.allclose(min_sq[b], bb.min_sq_dist(centers))
            assert np.allclose(max_sq[b], bb.max_sq_dist(centers))

    def test_sq_dist_consistent_with_dist(self):
        rng = np.random.default_rng(14)
        bb = BoundingBox.from_points(rng.random((30, 2)))
        q = rng.random((10, 2)) * 3 - 1
        assert np.allclose(bb.min_dist(q) ** 2, bb.min_sq_dist(q))
        assert np.allclose(bb.max_dist(q) ** 2, bb.max_sq_dist(q))

    def test_block_bounds_validation(self):
        with pytest.raises(ValueError):
            block_bounds(np.empty((0, 2)), 8)
        with pytest.raises(ValueError):
            block_bounds(np.random.rand(5, 2), 0)
