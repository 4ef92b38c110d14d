"""End-to-end tests for balanced k-means (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assign import center_partial_sums
from repro.core.balanced_kmeans import balanced_kmeans, compute_sfc_order
from repro.core.config import BalancedKMeansConfig
from repro.metrics.imbalance import imbalance


def _uniform(n=2500, d=2, seed=0):
    return np.random.default_rng(seed).random((n, d))


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = BalancedKMeansConfig()
        assert cfg.epsilon == 0.03
        assert cfg.influence_change_cap == 0.05
        assert cfg.initial_sample_size == 100
        assert cfg.seeding == "sfc"

    def test_with_updates(self):
        cfg = BalancedKMeansConfig().with_(epsilon=0.05)
        assert cfg.epsilon == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": -1.0},
            {"max_iterations": 0},
            {"influence_change_cap": 0.0},
            {"influence_change_cap": 1.0},
            {"seeding": "magic"},
            {"chunk_size": 0},
            {"delta_threshold_rel": 0.0},
            {"epsilon": float("nan")},
            {"delta_threshold_rel": float("nan")},
            {"sfc_curve": "peano"},
            {"sfc_bits": 0},
            {"sfc_bits": -3},
            {"kernel_backend": "torch-cpu"},
            {"kernel_backend": "torch-cuda"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            BalancedKMeansConfig(**kwargs)


class TestCenterUpdate:
    """The rank-local k x (d+1) partial sums behind the center-update allreduce."""

    def test_weighted_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0]])
        w = np.array([1.0, 3.0, 1.0])
        a = np.array([0, 0, 1])
        sums = center_partial_sums(pts, w, a, 2)
        assert np.array_equal(sums[:, 2], [4.0, 1.0])
        centers = sums[:, :2] / sums[:, 2:]
        assert np.allclose(centers[0], [1.5, 0.0])
        assert np.allclose(centers[1], [10.0, 10.0])

    def test_empty_cluster_keeps_previous(self):
        """An empty cluster contributes an all-zero row: its weight column
        is 0, which is what makes the loop's update keep its previous center."""
        pts = np.array([[1.0, 1.0]])
        sums = center_partial_sums(pts, np.ones(1), np.zeros(1, dtype=np.int64), 2)
        assert np.array_equal(sums[0], [1.0, 1.0, 1.0])
        assert np.array_equal(sums[1], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("d", [2, 3])
    def test_fused_bincount_matches_per_dimension_reference(self, d):
        """The partial sums equal per-dimension weighted bincounts bit for bit."""
        rng = np.random.default_rng(40 + d)
        n, k = 1000, 7
        pts = rng.random((n, d))
        w = rng.uniform(0.1, 3.0, n)
        a = rng.integers(0, k, n)
        a[a == 5] = 4  # leave cluster 5 empty
        reference = np.empty((k, d + 1))
        for dd in range(d):
            reference[:, dd] = np.bincount(a, weights=w * pts[:, dd], minlength=k)
        reference[:, d] = np.bincount(a, weights=w, minlength=k)
        sums = center_partial_sums(pts, w, a, k)
        assert np.array_equal(sums, reference)
        assert np.array_equal(sums[5], np.zeros(d + 1))


def _reseed(pts, weights, assignment, centers, influence, block_weights, rng, p=1):
    """Run the Algorithm 2 loop's empty-block reseed with the points split over ``p`` ranks."""
    from repro.runtime.comm import VirtualComm
    from repro.runtime.distributed_kmeans import SharedStorage, _relocate_empty_blocks

    comm = VirtualComm(p)
    storage = SharedStorage(comm)
    cuts = np.array_split(np.arange(len(pts)), p)

    def spread(array):
        return [storage.put("x", r, np.asarray(array)[ix]) for r, ix in enumerate(cuts)]

    return _relocate_empty_blocks(comm, storage, spread(pts), spread(weights), spread(assignment),
                         centers, influence, block_weights, rng)


class TestReseedEmpty:
    """The loop's empty-block relocation moves empty clusters into the heaviest one."""

    def _state(self, n=40, k=3, seed=0):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 2))
        assignment = np.zeros(n, dtype=np.int64)  # everything in cluster 0
        centers = np.array([[0.5, 0.5], [2.0, 2.0], [3.0, 3.0]])
        influence = np.array([1.0, 0.7, 0.3])
        block_weights = np.array([float(n), 0.0, 0.0])
        return pts, assignment, centers, influence, block_weights, rng

    def test_noop_when_no_empty_cluster(self):
        pts, assignment, centers, influence, bw, rng = self._state()
        bw = np.array([20.0, 10.0, 10.0])
        before = centers.copy()
        assert not _reseed(pts, np.ones(len(pts)), assignment, centers, influence, bw, rng)
        assert np.array_equal(centers, before)

    def test_empty_centers_move_to_far_points_of_heaviest(self):
        pts, assignment, centers, influence, bw, rng = self._state()
        assert _reseed(pts, np.ones(len(pts)), assignment, centers, influence, bw, rng)
        # relocated centers now sit on actual points, not at (2,2)/(3,3)
        for c in (1, 2):
            assert np.any(np.all(np.isclose(pts, centers[c]), axis=1))
            assert influence[c] == 1.0  # influence reset
            assert bw[c] == 1.0  # seeded with the stolen point's weight

    def test_first_relocation_is_farthest_point(self):
        pts, assignment, centers, influence, bw, rng = self._state(seed=1)
        d = np.linalg.norm(pts - centers[0], axis=1)
        farthest = pts[int(np.argmax(d))].copy()
        _reseed(pts, np.ones(len(pts)), assignment, centers, influence, bw, rng)
        assert np.allclose(centers[1], farthest)

    def test_multiple_empties_get_distinct_points(self):
        """Regression: simultaneous empties used to all land on the same
        farthest point of the same heaviest cluster, yielding duplicate
        centers; weight tracking + exclusion must keep them distinct."""
        pts, assignment, centers, influence, bw, rng = self._state()
        assert _reseed(pts, np.ones(len(pts)), assignment, centers, influence, bw, rng)
        assert not np.allclose(centers[1], centers[2]), "empty centers collapsed onto one point"
        # donor cluster paid for both stolen points
        assert bw[0] == len(pts) - 2

    def test_many_empties_all_distinct(self):
        rng = np.random.default_rng(6)
        n, k = 60, 6
        pts = rng.random((n, 2))
        assignment = np.zeros(n, dtype=np.int64)
        centers = np.vstack([[0.5, 0.5]] + [[2.0 + i, 2.0 + i] for i in range(k - 1)])
        influence = np.ones(k)
        bw = np.concatenate([[float(n)], np.zeros(k - 1)])
        assert _reseed(pts, np.ones(n), assignment, centers, influence, bw, rng)
        uniq = np.unique(centers.round(12), axis=0)
        assert uniq.shape[0] == k, "relocated centers must be pairwise distinct"

    def test_singleton_heaviest_uses_random_point(self):
        pts = np.random.default_rng(2).random((5, 2))
        # cluster 1 is heaviest (one very heavy point) but holds exactly one
        # point, so the relocation falls back to a random point
        assignment = np.array([0, 0, 0, 0, 1], dtype=np.int64)
        centers = np.array([[0.2, 0.2], [0.9, 0.9], [5.0, 5.0]])
        influence = np.ones(3)
        bw = np.array([0.5, 4.0, 0.0])
        assert _reseed(pts, np.ones(5), assignment, centers, influence, bw,
                       np.random.default_rng(3))
        assert np.any(np.all(np.isclose(pts, centers[2]), axis=1))

    def _cases(self):
        """States covering the farthest-point, tie and random-fallback paths."""
        pts, assignment, centers, influence, bw, _ = self._state(seed=5)
        yield pts, np.ones(len(pts)), assignment, centers, influence, bw
        rng = np.random.default_rng(8)
        n, k = 61, 7
        pts = rng.random((n, 2))
        pts[[3, 50]] = [[-1.0, -1.0], [-1.0, -1.0]]  # equidistant farthest points on both ranks
        assignment = rng.integers(0, 2, n)
        weights = rng.uniform(0.5, 2.0, n)
        centers = np.vstack([[0.5, 0.5], [0.4, 0.6]] + [[9.0 + i, 9.0] for i in range(k - 2)])
        bw = np.concatenate([np.bincount(assignment, weights=weights, minlength=2), np.zeros(k - 2)])
        yield pts, weights, assignment, centers, np.ones(k), bw
        pts = np.random.default_rng(2).random((5, 2))
        yield (pts, np.ones(5), np.array([0, 0, 0, 0, 1]), np.array([[0.2, 0.2], [0.9, 0.9], [5.0, 5.0]]),
               np.ones(3), np.array([0.5, 4.0, 0.0]))

    @pytest.mark.parametrize("p", [2, 3])
    def test_ranks_pick_the_points_one_rank_picks(self, p):
        """Any rank count relocates onto exactly the points the one-rank run picks."""
        for pts, weights, assignment, centers, influence, bw in self._cases():
            one = [centers.copy(), influence.copy(), bw.copy()]
            many = [centers.copy(), influence.copy(), bw.copy()]
            assert _reseed(pts, weights, assignment, *one, np.random.default_rng(3))
            assert _reseed(pts, weights, assignment, *many, np.random.default_rng(3), p=p)
            for a, b in zip(one, many):
                assert np.array_equal(a, b)

    def test_end_to_end_random_seeding_fills_all_blocks(self):
        """Random seeding on clustered data can create empties; the driver recovers."""
        rng = np.random.default_rng(4)
        dense = rng.normal((0.1, 0.1), 0.01, (900, 2))
        outliers = rng.uniform(0.8, 1.0, (12, 2))
        pts = np.concatenate([dense, outliers])
        cfg = BalancedKMeansConfig(seeding="random", use_sampling=False, max_iterations=80)
        res = balanced_kmeans(pts, 6, config=cfg, rng=5)
        assert set(np.unique(res.assignment)) == set(range(6))


class TestTargetNormalization:
    """target_weights are ratios: any positive scaling balances identically."""

    def test_scaling_invariance(self):
        pts = _uniform(1200, seed=30)
        ratios = np.array([3.0, 1.0, 1.0, 1.0])
        a = balanced_kmeans(pts, 4, target_weights=ratios, rng=31)
        b = balanced_kmeans(pts, 4, target_weights=ratios * 1e6, rng=31)
        assert np.array_equal(a.assignment, b.assignment)

    def test_targets_rescaled_to_total_weight(self):
        pts = _uniform(1000, seed=32)
        w = np.random.default_rng(33).uniform(0.5, 2.0, 1000)
        res = balanced_kmeans(pts, 4, weights=w, target_weights=np.array([1.0, 1.0, 1.0, 5.0]),
                              rng=34, config=BalancedKMeansConfig(max_iterations=80))
        bw = np.bincount(res.assignment, weights=w, minlength=4)
        assert bw[3] > 2.5 * bw[:3].max()  # heavy block really got ~5/8 of the load

    @pytest.mark.parametrize("bad", [
        np.array([1.0, 0.0, 1.0]),
        np.array([1.0, -1.0, 1.0]),
        np.array([1.0, np.nan, 1.0]),
        np.ones(4),  # wrong length for k=3
    ])
    def test_invalid_targets_rejected(self, bad):
        with pytest.raises(ValueError):
            balanced_kmeans(_uniform(100), 3, target_weights=bad)


class TestBalancedKMeans:
    def test_balance_uniform(self):
        res = balanced_kmeans(_uniform(), 16, rng=0)
        assert res.imbalance <= 0.03 + 1e-9
        assert imbalance(res.assignment, 16) <= 0.05
        assert set(np.unique(res.assignment)) == set(range(16))

    def test_balance_weighted(self):
        rng = np.random.default_rng(1)
        pts = rng.random((3000, 2))
        w = rng.uniform(1.0, 47.0, 3000)  # climate-like weights
        res = balanced_kmeans(pts, 12, weights=w, rng=2)
        assert res.imbalance <= 0.03 + 1e-9

    def test_3d(self):
        res = balanced_kmeans(_uniform(1500, 3, seed=3), 8, rng=4)
        assert res.imbalance <= 0.03 + 1e-9
        assert res.converged

    def test_k1(self):
        pts = _uniform(100)
        res = balanced_kmeans(pts, 1)
        assert np.all(res.assignment == 0)
        assert res.converged
        assert np.allclose(res.centers[0], pts.mean(axis=0))

    def test_nonuniform_density(self):
        """Clustered data: balance must still be achieved via influence."""
        rng = np.random.default_rng(5)
        dense = rng.normal((0.2, 0.2), 0.05, (2400, 2))
        sparse = rng.uniform(0, 1, (600, 2))
        pts = np.concatenate([dense, sparse])
        res = balanced_kmeans(pts, 10, rng=6)
        assert res.imbalance <= 0.03 + 1e-9
        # influence values must have differentiated to achieve this
        assert res.influence.max() / res.influence.min() > 1.05

    def test_deterministic_given_seed(self):
        pts = _uniform(seed=7)
        a = balanced_kmeans(pts, 8, rng=42)
        b = balanced_kmeans(pts, 8, rng=42)
        assert np.array_equal(a.assignment, b.assignment)

    def test_history_recorded(self):
        res = balanced_kmeans(_uniform(seed=8), 8, rng=9)
        assert len(res.history) >= res.iterations
        full = [h for h in res.history if h.sample_size == 2500]
        assert all(h.balance_iterations >= 1 for h in full)

    def test_skip_fraction_claim(self):
        """§4.3: the inner loop is skipped in about 80% of cases."""
        res = balanced_kmeans(_uniform(4000, seed=10), 16, rng=11)
        assert res.skip_fraction > 0.6

    def test_timers_cover_stages(self):
        res = balanced_kmeans(_uniform(seed=12), 8, rng=13)
        for stage in ("sfc_index", "seeding", "assign", "update"):
            assert stage in res.timers.stages

    def test_warm_start_centers(self):
        pts = _uniform(seed=14)
        from repro.core.seeding import sfc_seeding

        warm = sfc_seeding(pts, 8)
        res = balanced_kmeans(pts, 8, centers=warm, rng=15)
        assert res.imbalance <= 0.03 + 1e-9

    def test_warm_start_bad_shape(self):
        with pytest.raises(ValueError):
            balanced_kmeans(_uniform(100), 4, centers=np.zeros((3, 2)))

    def test_target_weights_footnote1(self):
        """Heterogeneous targets (paper footnote 1): 2:1:1:... split."""
        pts = _uniform(2000, seed=16)
        k = 5
        targets = np.array([2.0, 1.0, 1.0, 1.0, 1.0])
        res = balanced_kmeans(pts, k, target_weights=targets, rng=17,
                              config=BalancedKMeansConfig(max_iterations=80))
        sizes = np.bincount(res.assignment, minlength=k)
        expected = targets / targets.sum() * 2000
        assert np.all(np.abs(sizes - expected) / expected < 0.15)

    def test_target_weights_validation(self):
        with pytest.raises(ValueError):
            balanced_kmeans(_uniform(100), 3, target_weights=np.array([1.0, -1.0, 1.0]))

    def test_epsilon_zero_strictness(self):
        """epsilon=0 is legal; the algorithm balances as far as the cap lets it."""
        cfg = BalancedKMeansConfig(epsilon=0.005, max_iterations=100, max_balance_iterations=60)
        res = balanced_kmeans(_uniform(1024, seed=18), 4, config=cfg, rng=19)
        assert res.imbalance <= 0.02


class TestSeedingVariants:
    @pytest.mark.parametrize("seeding", ["sfc", "random", "kmeans++"])
    def test_all_converge_balanced(self, seeding):
        cfg = BalancedKMeansConfig(seeding=seeding, use_sampling=False, max_iterations=80)
        res = balanced_kmeans(_uniform(1500, seed=20), 8, config=cfg, rng=21)
        assert res.imbalance <= 0.031

    def test_sfc_converges_fast(self):
        """SFC seeding needs fewer full iterations than random seeding (on average)."""
        pts = _uniform(3000, seed=22)
        iters = {}
        for seeding in ("sfc", "random"):
            cfg = BalancedKMeansConfig(seeding=seeding, use_sampling=False)
            total = 0
            for s in range(3):
                total += balanced_kmeans(pts, 16, config=cfg, rng=s).iterations
            iters[seeding] = total
        assert iters["sfc"] <= iters["random"] * 1.5


class TestOptimisationEquivalence:
    def test_bounds_and_pruning_do_not_change_result(self):
        pts = _uniform(1200, seed=23)
        base = BalancedKMeansConfig(use_sampling=False)
        ref = balanced_kmeans(pts, 10, config=base.with_(use_bounds=False, use_box_pruning=False), rng=24)
        for cfg in (base, base.with_(use_box_pruning=False)):
            res = balanced_kmeans(pts, 10, config=cfg, rng=24)
            assert np.array_equal(res.assignment, ref.assignment)

    def test_sampling_still_balanced(self):
        pts = _uniform(4000, seed=25)
        res = balanced_kmeans(pts, 8, config=BalancedKMeansConfig(use_sampling=True), rng=26)
        assert res.imbalance <= 0.031
        sampled_rounds = [h for h in res.history if h.sample_size < 4000]
        assert len(sampled_rounds) >= 3  # log2(4000/100) ~ 5 rounds


class TestWarmWorkspace:
    """Warm SweepWorkspace / precomputed SFC-order reuse (the service path):
    bit-identical to cold runs, with loud rejection of mismatched reuse."""

    def test_reused_workspace_and_order_are_bit_identical(self):
        from repro.core.kernels import SweepWorkspace

        pts = _uniform(1500, seed=31)
        cfg = BalancedKMeansConfig(use_sampling=False)
        cold = balanced_kmeans(pts, 8, config=cfg, rng=5)
        order = compute_sfc_order(pts, cfg)
        ws = SweepWorkspace(np.ascontiguousarray(pts[order]), cfg, 8)
        warm1 = balanced_kmeans(pts, 8, config=cfg, rng=5, workspace=ws, sfc_order=order)
        # second reuse of the *same* workspace (now carrying aggregates)
        warm2 = balanced_kmeans(pts, 8, config=cfg, rng=5, workspace=ws, sfc_order=order)
        for warm in (warm1, warm2):
            assert np.array_equal(cold.assignment, warm.assignment)
            assert np.array_equal(cold.centers, warm.centers)
            assert cold.imbalance == warm.imbalance
            assert cold.iterations == warm.iterations

    def test_warm_repartition_matches_cold_repartition(self):
        from repro.core.kernels import SweepWorkspace

        pts = _uniform(1200, seed=33)
        cfg = BalancedKMeansConfig(use_sampling=False)
        first = balanced_kmeans(pts, 6, config=cfg, rng=7)
        cold = balanced_kmeans(pts, 6, config=cfg, rng=8, centers=first.centers)
        order = compute_sfc_order(pts, cfg)
        ws = SweepWorkspace(np.ascontiguousarray(pts[order]), cfg, 6)
        warm = balanced_kmeans(pts, 6, config=cfg, rng=8, centers=first.centers,
                               workspace=ws, sfc_order=order)
        assert np.array_equal(cold.assignment, warm.assignment)
        assert np.array_equal(cold.centers, warm.centers)

    def test_mismatched_workspace_rejected(self):
        from repro.core.kernels import SweepWorkspace

        pts = _uniform(800, seed=35)
        cfg = BalancedKMeansConfig(use_sampling=False)
        ws = SweepWorkspace(pts, cfg, 4)  # unsorted points / wrong k below
        with pytest.raises(ValueError, match="warm workspace"):
            balanced_kmeans(pts, 5, config=cfg, rng=0, workspace=ws)

    def test_bad_sfc_order_shape_rejected(self):
        pts = _uniform(500, seed=36)
        with pytest.raises(ValueError, match="sfc_order"):
            balanced_kmeans(pts, 4, rng=0, sfc_order=np.arange(7))

    def test_workspace_matches_ignores_non_workspace_fields(self):
        from repro.core.kernels import SweepWorkspace

        pts = _uniform(400, seed=37)
        cfg = BalancedKMeansConfig(use_sampling=True)
        ws = SweepWorkspace(pts, cfg, 4)
        assert ws.matches(pts, cfg.with_(use_sampling=False, epsilon=0.05), 4)
        assert not ws.matches(pts, cfg.with_(chunk_size=cfg.chunk_size * 2), 4)
        assert not ws.matches(pts, cfg, 5)
        assert not ws.matches(pts[:-1], cfg, 4)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(200, 900), k=st.integers(2, 10), seed=st.integers(0, 100))
def test_property_always_valid_partition(n, k, seed):
    """Any (n, k, seed): output is a complete partition with tolerable imbalance."""
    pts = np.random.default_rng(seed).random((n, 2))
    res = balanced_kmeans(pts, k, rng=seed)
    assert res.assignment.shape == (n,)
    assert res.assignment.min() >= 0 and res.assignment.max() < k
    # imbalance within epsilon, or at worst the one-point granularity limit
    assert res.imbalance <= max(0.03, 2.0 * k / n) + 1e-9
