"""Tests for influence adaptation (Eq. 1) and erosion (Eq. 2-3)."""

import numpy as np
import pytest

from repro.core.assign import diameter_partial_sums
from repro.core.influence import adapt_influence, erode_influence


class TestAdaptInfluence:
    def test_oversized_block_loses_influence(self):
        """The paper's text: influence of oversized blocks is decreased."""
        infl = np.ones(2)
        current = np.array([150.0, 50.0])
        target = np.array([100.0, 100.0])
        out = adapt_influence(infl, current, target, dim=2)
        assert out[0] < 1.0  # oversized shrinks
        assert out[1] > 1.0  # undersized grows

    def test_expected_size_correction(self):
        """Uncapped, the update scales effective distance by (cur/tgt)^(1/d),
        i.e. expected volume by tgt/cur — exactly onto the target."""
        infl = np.ones(1)
        out = adapt_influence(infl, np.array([200.0]), np.array([100.0]), dim=2, cap=0.99)
        # factor = (100/200)^(1/2)
        assert out[0] == pytest.approx(np.sqrt(0.5))

    def test_cap_limits_change(self):
        infl = np.ones(2)
        out = adapt_influence(infl, np.array([1000.0, 1.0]), np.array([100.0, 100.0]), dim=2, cap=0.05)
        assert out[0] >= 0.95 - 1e-12
        assert out[1] <= 1.05 + 1e-12

    def test_empty_cluster_gets_max_boost(self):
        out = adapt_influence(np.ones(1), np.array([0.0]), np.array([100.0]), dim=2, cap=0.05)
        assert out[0] == pytest.approx(1.05)

    def test_balanced_is_noop(self):
        infl = np.array([0.8, 1.2])
        out = adapt_influence(infl, np.array([100.0, 100.0]), np.array([100.0, 100.0]), dim=3)
        assert np.allclose(out, infl)

    def test_floor_ceil_guard(self):
        out = adapt_influence(np.array([1e-9]), np.array([1000.0]), np.array([1.0]), dim=2,
                              cap=0.5, floor=1e-6, ceil=1e6)
        assert out[0] >= 1e-6

    def test_dimension_matters(self):
        """Same size error needs a smaller distance change in 3D than 2D."""
        cur, tgt = np.array([200.0]), np.array([100.0])
        f2 = adapt_influence(np.ones(1), cur, tgt, dim=2, cap=0.99)[0]
        f3 = adapt_influence(np.ones(1), cur, tgt, dim=3, cap=0.99)[0]
        assert f3 > f2  # 3D factor closer to 1

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            adapt_influence(np.ones(1), np.ones(1), np.zeros(1), dim=2)


class TestErosion:
    def test_no_movement_no_erosion(self):
        infl = np.array([0.5, 2.0])
        out = erode_influence(infl, np.zeros(2), mean_diameter=1.0)
        assert np.allclose(out, infl)

    def test_large_movement_resets_to_one(self):
        """Moving far beyond the mean diameter regresses influence to ~1."""
        infl = np.array([0.1, 10.0])
        out = erode_influence(infl, np.array([50.0, 50.0]), mean_diameter=1.0)
        assert np.all(np.abs(np.log(out)) < 0.1 * np.abs(np.log(infl)))

    def test_monotone_in_distance(self):
        infl = np.full(3, 4.0)
        out = erode_influence(infl, np.array([0.1, 1.0, 10.0]), mean_diameter=1.0)
        assert out[0] > out[1] > out[2] >= 1.0

    def test_erosion_direction_both_sides(self):
        """Influences above and below 1 both move towards 1."""
        out = erode_influence(np.array([0.25, 4.0]), np.array([1.0, 1.0]), mean_diameter=1.0)
        assert 0.25 < out[0] < 1.0
        assert 1.0 < out[1] < 4.0

    def test_zero_diameter_noop(self):
        infl = np.array([2.0])
        assert np.allclose(erode_influence(infl, np.array([1.0]), 0.0), infl)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            erode_influence(np.ones(1), np.array([-1.0]), 1.0)


def _diameters(pts, assign, centers, weights=None):
    """Per-cluster diameter estimate as the Algorithm 2 loop's erosion step
    computes it: 2 x the rms radius from the rank-local partial sums."""
    k = centers.shape[0]
    w = np.ones(pts.shape[0]) if weights is None else weights
    sums = diameter_partial_sums(pts, w, assign, centers)
    sq, cnts = sums[:k], sums[k:]
    with np.errstate(invalid="ignore", divide="ignore"):
        return 2.0 * np.sqrt(np.where(cnts > 0, sq / np.maximum(cnts, 1e-300), 0.0))


class TestDiameterEstimate:
    def test_uniform_disk(self):
        rng = np.random.default_rng(0)
        angles = rng.uniform(0, 2 * np.pi, 4000)
        radii = np.sqrt(rng.random(4000))  # uniform in unit disk
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        assign = np.zeros(4000, dtype=np.int64)
        centers = np.zeros((1, 2))
        est = _diameters(pts, assign, centers)
        # rms radius of unit disk = 1/sqrt(2) -> estimate = sqrt(2) ~ 1.41 (true diameter 2)
        assert 1.2 < est[0] < 1.6

    def test_empty_cluster_zero(self):
        pts = np.random.default_rng(1).random((10, 2))
        assign = np.zeros(10, dtype=np.int64)
        centers = np.zeros((2, 2))
        sums = diameter_partial_sums(pts, np.ones(10), assign, centers)
        assert sums[1] == 0.0 and sums[3] == 0.0  # no squared radius, no weight
        assert _diameters(pts, assign, centers)[1] == 0.0

    def test_weighted(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        assign = np.zeros(2, dtype=np.int64)
        centers = np.array([[0.0, 0.0]])
        heavy_far = _diameters(pts, assign, centers, weights=np.array([1.0, 10.0]))
        heavy_near = _diameters(pts, assign, centers, weights=np.array([10.0, 1.0]))
        assert heavy_far[0] > heavy_near[0]
