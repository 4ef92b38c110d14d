"""Tests for the vectorised assignment sweep and the assign-and-balance phase (Algorithm 1).

The central invariant: Hamerly bounds and bounding-box pruning are *exact*
optimisations — any configuration of switches yields identical assignments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assign import AssignStats, _box_candidates, assign_points
from repro.core.balanced_kmeans import balanced_kmeans
from repro.core.bounds import init_bounds
from repro.core.config import BalancedKMeansConfig
from repro.geometry.distances import effective_distances


def _setup(seed, n=400, k=8, d=2):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    centers = rng.random((k, d))
    influence = rng.uniform(0.7, 1.4, k)
    return pts, centers, influence


def _brute_assign(pts, centers, influence):
    return effective_distances(pts, centers, influence).argmin(axis=1)


class TestAssignPoints:
    @pytest.mark.parametrize("use_bounds,use_pruning", [(True, True), (True, False), (False, True), (False, False)])
    def test_matches_brute_force(self, use_bounds, use_pruning):
        pts, centers, influence = _setup(0)
        cfg = BalancedKMeansConfig(use_bounds=use_bounds, use_box_pruning=use_pruning, chunk_size=64)
        assignment = np.zeros(len(pts), dtype=np.int64)
        ub, lb = init_bounds(len(pts))
        assign_points(pts, centers, influence, assignment, ub, lb, cfg)
        assert np.array_equal(assignment, _brute_assign(pts, centers, influence))

    def test_bounds_skip_stable_points(self):
        pts, centers, influence = _setup(1)
        cfg = BalancedKMeansConfig()
        assignment = np.zeros(len(pts), dtype=np.int64)
        ub, lb = init_bounds(len(pts))
        assign_points(pts, centers, influence, assignment, ub, lb, cfg)
        stats = AssignStats()
        evaluated = assign_points(pts, centers, influence, assignment, ub, lb, cfg, stats)
        # nothing moved -> bounds certify everything
        assert evaluated == 0
        assert stats.skip_fraction == 1.0

    def test_bounds_are_exact_after_sweep(self):
        pts, centers, influence = _setup(2)
        cfg = BalancedKMeansConfig(use_box_pruning=False)
        assignment = np.zeros(len(pts), dtype=np.int64)
        ub, lb = init_bounds(len(pts))
        assign_points(pts, centers, influence, assignment, ub, lb, cfg)
        eff = effective_distances(pts, centers, influence)
        assert np.allclose(ub, eff.min(axis=1))
        assert np.allclose(lb, np.partition(eff, 1, axis=1)[:, 1])

    def test_stats_counters(self):
        pts, centers, influence = _setup(3)
        cfg = BalancedKMeansConfig(use_box_pruning=True, chunk_size=50)
        assignment = np.zeros(len(pts), dtype=np.int64)
        ub, lb = init_bounds(len(pts))
        stats = AssignStats()
        assign_points(pts, centers, influence, assignment, ub, lb, cfg, stats)
        assert stats.points_total == len(pts)
        assert stats.center_evals <= stats.center_evals_possible
        assert 0.0 <= stats.pruning_fraction <= 1.0


class TestBoxCandidates:
    def test_prunes_far_centers(self):
        rng = np.random.default_rng(4)
        chunk = rng.random((50, 2)) * 0.1  # tight cluster near origin
        centers = np.concatenate([rng.random((3, 2)) * 0.2, np.full((5, 2), 10.0)])
        cand = _box_candidates(chunk, centers, np.ones(8))
        assert cand is not None
        assert set(cand.tolist()).issubset({0, 1, 2})

    def test_keeps_all_when_necessary(self):
        chunk = np.random.default_rng(5).random((20, 2))  # chunk spans everything
        centers = np.random.default_rng(6).random((4, 2))
        cand = _box_candidates(chunk, centers, np.ones(4))
        # may return None (all) — both candidates paths must cover >= 2 centers
        assert cand is None or cand.shape[0] >= 2

    def test_small_k_skipped(self):
        chunk = np.random.default_rng(7).random((10, 2))
        assert _box_candidates(chunk, np.random.rand(2, 2), np.ones(2)) is None


class TestAssignAndBalance:
    """Algorithm 1 as the Algorithm 2 loop runs it: one movement round from given centers."""

    @staticmethod
    def _one_phase(pts, k, centers, **cfg):
        cfg = BalancedKMeansConfig(max_iterations=1, **cfg)
        return balanced_kmeans(pts, k, centers=centers, config=cfg, rng=0), cfg

    def test_reaches_balance(self):
        rng = np.random.default_rng(8)
        pts = rng.random((2000, 2))
        k = 8
        from repro.core.seeding import sfc_seeding

        res, cfg = self._one_phase(pts, k, sfc_seeding(pts, k), max_balance_iterations=50)
        assert res.history[0].balance_iterations < cfg.max_balance_iterations
        assert res.imbalance <= cfg.epsilon
        block_weights = np.bincount(res.assignment, minlength=k)
        assert block_weights.sum() == len(pts)
        assert block_weights.max() / (len(pts) / k) - 1.0 == pytest.approx(res.imbalance)

    def test_influence_consistent_with_assignment(self):
        """Returned influence is the one the final assignment was computed with."""
        rng = np.random.default_rng(9)
        pts = rng.random((500, 2))
        k = 4
        centers = pts[rng.choice(500, k, replace=False)]
        res, _ = self._one_phase(pts, k, centers, max_balance_iterations=10, use_erosion=False)
        expected = effective_distances(pts, centers, res.influence).argmin(axis=1)
        assert np.array_equal(res.assignment, expected)

    def test_warm_start_centers_not_mutated(self):
        rng = np.random.default_rng(10)
        pts = rng.random((300, 2))
        centers = pts[:3].copy()
        before = centers.copy()
        self._one_phase(pts, 3, centers)
        assert np.array_equal(centers, before)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), k=st.integers(2, 12), chunk=st.sampled_from([17, 64, 4096]))
def test_property_optimisations_exact(seed, k, chunk):
    """For any random state, all optimisation switches agree with brute force."""
    rng = np.random.default_rng(seed)
    pts = rng.random((150, 2))
    centers = rng.random((k, 2))
    influence = rng.uniform(0.5, 2.0, k)
    reference = _brute_assign(pts, centers, influence)
    for use_bounds in (True, False):
        for use_pruning in (True, False):
            cfg = BalancedKMeansConfig(use_bounds=use_bounds, use_box_pruning=use_pruning, chunk_size=chunk)
            assignment = np.zeros(len(pts), dtype=np.int64)
            ub, lb = init_bounds(len(pts))
            assign_points(pts, centers, influence, assignment, ub, lb, cfg)
            assert np.array_equal(assignment, reference)
