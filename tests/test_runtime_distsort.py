"""Tests for the distributed sample sort + redistribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.comm import VirtualComm
from repro.runtime.distsort import distributed_sort


def _random_input(p, seed, max_len=200):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 100_000, size=int(rng.integers(0, max_len))) for _ in range(p)]


class TestDistributedSort:
    def test_sorted_and_permutation(self):
        keys = _random_input(4, 0)
        comm = VirtualComm(4)
        out, _ = distributed_sort(comm, keys)
        cat = np.concatenate(out)
        assert np.array_equal(cat, np.sort(np.concatenate(keys)))

    def test_equalized_chunks(self):
        keys = _random_input(5, 1)
        comm = VirtualComm(5)
        out, _ = distributed_sort(comm, keys)
        sizes = [len(a) for a in out]
        assert max(sizes) - min(sizes) <= 1

    def test_payload_travels_with_keys(self):
        rng = np.random.default_rng(3)
        keys = [rng.permutation(20) + 20 * r for r in range(3)]
        payload = [k.astype(np.float64).reshape(-1, 1) * 2.0 for k in keys]
        comm = VirtualComm(3)
        out_keys, out_pay = distributed_sort(comm, keys, payload)
        for kk, pp in zip(out_keys, out_pay):
            assert np.allclose(pp.ravel(), kk * 2.0)

    def test_single_rank(self):
        comm = VirtualComm(1)
        keys = [np.array([3, 1, 2])]
        out, _ = distributed_sort(comm, keys)
        assert out[0].tolist() == [1, 2, 3]

    def test_empty_ranks_ok(self):
        comm = VirtualComm(3)
        keys = [np.array([5, 1]), np.array([], dtype=np.int64), np.array([3])]
        out, _ = distributed_sort(comm, keys)
        assert np.concatenate(out).tolist() == [1, 3, 5]

    def test_duplicate_keys(self):
        comm = VirtualComm(4)
        keys = [np.full(50, 7) for _ in range(4)]
        out, _ = distributed_sort(comm, keys)
        sizes = [len(a) for a in out]
        assert max(sizes) - min(sizes) <= 1
        assert np.all(np.concatenate(out) == 7)

    def test_charges_communication(self):
        keys = _random_input(4, 4)
        comm = VirtualComm(4)
        distributed_sort(comm, keys)
        assert comm.ledger.collectives.get("alltoallv", 0.0) > 0
        assert comm.ledger.collectives.get("allgather", 0.0) > 0

    def test_length_mismatch_raises(self):
        comm = VirtualComm(2)
        with pytest.raises(ValueError):
            distributed_sort(comm, [np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64)],
                             [np.zeros((3, 1)), np.zeros((3, 1))])

    def test_wrong_rank_count_raises(self):
        comm = VirtualComm(3)
        with pytest.raises(ValueError):
            distributed_sort(comm, [np.zeros(2, dtype=np.int64)] * 2)


@settings(max_examples=25, deadline=None)
@given(p=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_property_sort_correct(p, seed):
    keys = _random_input(p, seed, max_len=80)
    comm = VirtualComm(p)
    out, _ = distributed_sort(comm, keys)
    cat = np.concatenate(out) if any(len(k) for k in keys) else np.array([])
    assert np.array_equal(cat, np.sort(np.concatenate(keys)))
    sizes = [len(a) for a in out]
    if sum(sizes):
        assert max(sizes) - min(sizes) <= 1
