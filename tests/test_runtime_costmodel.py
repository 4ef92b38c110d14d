"""Tests for the alpha-beta-island machine model."""

import pytest

from repro.runtime.costmodel import SUPERMUC_LIKE, MachineModel


class TestValidation:
    def test_defaults_valid(self):
        assert SUPERMUC_LIKE.island_size == 8192

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -1.0},
            {"beta": -1.0},
            {"island_size": 0},
            {"island_factor": 0.5},
            {"compute_rate": 0.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MachineModel(**kwargs)


class TestCosts:
    def setup_method(self):
        self.m = MachineModel(alpha=1e-6, beta=1e-9, island_size=1024, island_factor=2.0)

    def test_single_rank_free(self):
        assert self.m.allreduce(1000, 1) == 0.0
        assert self.m.allgather(1000, 1) == 0.0
        assert self.m.alltoallv(1000, 1) == 0.0

    def test_allreduce_logarithmic(self):
        t64 = self.m.allreduce(8, 64)
        t1024 = self.m.allreduce(8, 1024)
        assert t1024 == pytest.approx(t64 * (10 / 6))  # log2 1024 / log2 64

    def test_allreduce_monotone_in_bytes(self):
        assert self.m.allreduce(10_000, 64) > self.m.allreduce(8, 64)

    def test_alltoallv_linear_in_ranks(self):
        t2 = self.m.alltoallv(0, 2)
        t32 = self.m.alltoallv(0, 32)
        assert t32 == pytest.approx(t2 * 31)

    def test_island_penalty_kicks_in(self):
        """The §5.3.2 effect: crossing the island boundary costs extra."""
        within = self.m.allreduce(8, 1024)
        crossing = self.m.allreduce(8, 2048)
        # 2048 ranks: one extra log round AND the island factor
        assert crossing > within * 2.0

    def test_penalty_function(self):
        assert self.m.penalty(1024) == 1.0
        assert self.m.penalty(1025) == 2.0

    def test_compute(self):
        m = MachineModel(compute_rate=1e6)
        assert m.compute(2e6) == pytest.approx(2.0)

    def test_allgather_doubling_payload(self):
        # total payload transferred: b * (1 + 2 + ... + 2^(r-1)) = b * (p - 1)
        t = self.m.allgather(8, 8)
        expected = (3 * self.m.alpha + self.m.beta * 8 * 7)
        assert t == pytest.approx(expected)
