"""Tests for the distributed (simulated SPMD) Geographer."""

import numpy as np
import pytest

from repro.core.balanced_kmeans import balanced_kmeans
from repro.core.config import BalancedKMeansConfig
from repro.metrics.imbalance import imbalance
from repro.runtime.costmodel import MachineModel
from repro.runtime.distributed_kmeans import distributed_balanced_kmeans


def _pts(n=2000, d=2, seed=0):
    return np.random.default_rng(seed).random((n, d))


class TestDistributedKMeans:
    def test_balanced_output(self):
        res = distributed_balanced_kmeans(_pts(), k=8, nranks=4, rng=0)
        assert res.imbalance <= 0.03 + 1e-9
        assert set(np.unique(res.assignment)) == set(range(8))

    def test_matches_serial(self):
        """Same seeding + deterministic kernels: the SPMD run reproduces the
        serial partition (up to floating-point reduction order)."""
        pts = _pts(3000, seed=1)
        cfg = BalancedKMeansConfig(use_sampling=False)
        dist = distributed_balanced_kmeans(pts, k=8, nranks=4, config=cfg, rng=2)
        serial = balanced_kmeans(pts, 8, config=cfg, rng=2)
        agreement = (dist.assignment == serial.assignment).mean()
        assert agreement > 0.95

    def test_nranks_independent_of_k(self):
        """k and p are decoupled (paper: "completely independent")."""
        pts = _pts(1500, seed=3)
        res = distributed_balanced_kmeans(pts, k=6, nranks=4, rng=4)
        assert res.imbalance <= 0.031
        res2 = distributed_balanced_kmeans(pts, k=4, nranks=7, rng=5)
        assert res2.imbalance <= 0.031

    def test_single_rank(self):
        pts = _pts(800, seed=6)
        res = distributed_balanced_kmeans(pts, k=4, nranks=1, rng=7)
        assert res.imbalance <= 0.031

    def test_weighted(self):
        rng = np.random.default_rng(8)
        pts = rng.random((2000, 2))
        w = rng.uniform(1, 10, 2000)
        res = distributed_balanced_kmeans(pts, k=6, nranks=4, weights=w, rng=9)
        assert imbalance(res.assignment, 6, w) <= 0.05

    def test_3d(self):
        res = distributed_balanced_kmeans(_pts(1200, 3, seed=10), k=4, nranks=3, rng=11)
        assert res.imbalance <= 0.031

    def test_ledger_stages(self):
        res = distributed_balanced_kmeans(_pts(seed=12), k=4, nranks=4, rng=13)
        for stage in ("sfc_index", "redistribute", "kmeans"):
            assert stage in res.ledger.stages, stage
        assert res.simulated_seconds > 0
        fracs = res.stage_fractions()
        assert abs(sum(fracs.values()) - 1.0) < 1e-9

    def test_communication_structure(self):
        """Communication is allreduce-dominated (Algorithm 1/2's blue lines)."""
        res = distributed_balanced_kmeans(_pts(seed=14), k=4, nranks=4, rng=15)
        ops = res.ledger.collectives
        assert "allreduce" in ops
        assert "alltoallv" in ops  # the one-off redistribution

    def test_more_ranks_less_compute(self):
        """Max rank-local compute time shrinks with more ranks (same n)."""
        pts = _pts(6000, seed=16)
        cfg = BalancedKMeansConfig(use_sampling=False)
        t2 = distributed_balanced_kmeans(pts, k=4, nranks=2, config=cfg, rng=17).ledger.compute_seconds
        t8 = distributed_balanced_kmeans(pts, k=4, nranks=8, config=cfg, rng=17).ledger.compute_seconds
        assert t8 < t2

    def test_island_penalty_increases_comm(self):
        pts = _pts(600, seed=18)
        cfg = BalancedKMeansConfig(use_sampling=False, max_iterations=5)
        cheap = MachineModel(island_size=8192)
        pricey = MachineModel(island_size=2)  # everything crosses islands
        a = distributed_balanced_kmeans(pts, k=4, nranks=4, config=cfg, machine=cheap, rng=19)
        b = distributed_balanced_kmeans(pts, k=4, nranks=4, config=cfg, machine=pricey, rng=19)
        assert b.ledger.comm_seconds > a.ledger.comm_seconds

    def test_sampling_rounds_run(self):
        pts = _pts(4000, seed=20)
        cfg = BalancedKMeansConfig(use_sampling=True)
        res = distributed_balanced_kmeans(pts, k=4, nranks=4, config=cfg, rng=21)
        assert res.imbalance <= 0.031

    def test_more_ranks_than_points_rejected(self):
        with pytest.raises(ValueError, match="nranks=8 exceeds the number of points n=6"):
            distributed_balanced_kmeans(_pts(6), k=3, nranks=8, rng=0)


class TestSuperstepCounts:
    """Exact superstep counts: one rank turn per balance iteration.

    A count repeats exactly on any host and backend; changing one of these
    values must be explained in CHANGES.md.
    """

    def test_fault_test_problem(self):
        # the run tests/test_faults.py injects its faults into
        pts = np.random.default_rng(0).random((300, 2))
        res = distributed_balanced_kmeans(pts, 4, 2, config=BalancedKMeansConfig(epsilon=0.02), rng=5)
        assert res.iterations == 11
        assert res.ledger.supersteps == 69

    def test_dist_process_problem(self):
        # the dist-process benchmark problem, on the virtual backend
        rng = np.random.default_rng(2)
        pts = rng.random((60_000, 2))
        w = rng.integers(1, 4, 60_000).astype(np.float64)
        res = distributed_balanced_kmeans(pts, 32, 2, weights=w, rng=0)
        assert res.iterations == 50
        assert res.ledger.supersteps == 325


class TestOneRankInvariant:
    """Serial ``balanced_kmeans`` is the Algorithm 2 loop on one virtual rank."""

    CASES = {
        "sampling": {},
        "no-sampling": {"use_sampling": False},
        "no-bounds": {"use_bounds": False},
        "no-erosion": {"use_erosion": False},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_serial_equals_one_rank(self, case, weighted):
        rng = np.random.default_rng(22)
        pts = rng.random((3000, 2))
        w = rng.integers(1, 5, 3000).astype(np.float64) if weighted else None
        cfg = BalancedKMeansConfig(**self.CASES[case])
        serial = balanced_kmeans(pts, 8, weights=w, config=cfg, rng=23)
        dist = distributed_balanced_kmeans(pts, 8, nranks=1, weights=w, config=cfg, rng=23)
        _assert_identical(serial, dist)

    def test_warm_start(self):
        pts = _pts(4000, seed=24)
        cold = balanced_kmeans(pts, 6, rng=25)
        serial = balanced_kmeans(pts, 6, centers=cold.centers, rng=26)
        dist = distributed_balanced_kmeans(pts, 6, nranks=1, centers=cold.centers, rng=26)
        _assert_identical(serial, dist)


def _assert_identical(serial, dist):
    np.testing.assert_array_equal(serial.assignment, dist.assignment)
    np.testing.assert_array_equal(serial.centers, dist.centers)
    np.testing.assert_array_equal(serial.influence, dist.influence)
    assert serial.imbalance == dist.imbalance
    assert serial.iterations == dist.iterations
    assert serial.converged == dist.converged


class TestSeedingIsSfcOnly:
    """Distributed runs seed from the SFC order; other seedings fail loudly."""

    @pytest.mark.parametrize("seeding", ["random", "kmeans++"])
    def test_in_memory_rejects_other_seeding(self, seeding):
        with pytest.raises(ValueError, match="sfc"):
            distributed_balanced_kmeans(_pts(400), 8, 2, config=BalancedKMeansConfig(seeding=seeding))

    @pytest.mark.parametrize("seeding", ["random", "kmeans++"])
    def test_ondisk_rejects_other_seeding(self, seeding, tmp_path):
        from repro.io.sharded import write_sharded
        from repro.runtime.ondisk import ondisk_distributed_kmeans

        ds = write_sharded(tmp_path / "ds", _pts(400), shard_rows=100)
        with pytest.raises(ValueError, match="sfc"):
            ondisk_distributed_kmeans(ds, 8, 2, config=BalancedKMeansConfig(seeding=seeding),
                                      spill_dir=tmp_path / "spill")
