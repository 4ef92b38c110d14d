"""Post-partition shuffle: conservation property, ownership, disk/memory parity."""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import BalancedKMeansConfig
from repro.io.sharded import write_sharded
from repro.runtime.comm import VirtualComm
from repro.runtime.ondisk import ondisk_distributed_kmeans
from repro.runtime.shuffle import (
    ShuffleOutput,
    ShuffleVerificationError,
    block_owner,
    shuffle_partition,
    shuffle_to_disk,
    verify_shuffle,
)

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

CFG = BalancedKMeansConfig(epsilon=0.02)


@pytest.fixture(autouse=True)
def _spill_under_tmp_path(tmp_path, monkeypatch):
    """Runs without ``spill_dir`` spill into ``tempfile.mkdtemp()``, which
    nothing removes; point it at this test's ``tmp_path`` instead."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))


def _random_chunks(p, k, seed, max_rows=80):
    """Arbitrarily distributed per-rank payload chunks with a random partition."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, max_rows, size=p)
    n = int(sizes.sum())
    perm = rng.permutation(n)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    pts = rng.random((n, 2))
    w = 0.5 + rng.random(n)
    a = rng.integers(0, k, size=n)
    chunk = lambda arr: [arr[perm[bounds[r]:bounds[r + 1]]] for r in range(p)]
    ids = np.arange(n, dtype=np.int64)
    return n, chunk(pts), chunk(w), chunk(ids), chunk(a), pts, w, a


class TestBlockOwner:
    @given(k=st.integers(1, 64), p=st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_contiguous_monotone_and_total(self, k, p):
        owners = block_owner(k, p)
        assert owners.shape == (k,)
        assert np.all(np.diff(owners) >= 0)  # contiguous block ranges
        assert owners.min() >= 0 and owners.max() < p
        if k >= p:
            assert np.array_equal(np.unique(owners), np.arange(p))  # every rank owns blocks


class TestConservation:
    @given(p=st.integers(1, 5), k=st.integers(1, 12), seed=st.integers(0, 2**16))
    @SETTINGS
    def test_every_id_appears_exactly_once(self, p, k, seed):
        n, cp, cw, ci, ca, pts, w, a = _random_chunks(p, k, seed)
        comm = VirtualComm(p)
        out = shuffle_partition(comm, k, cp, cw, ci, ca)
        comm.close()
        got = np.concatenate(out.ids) if n else np.zeros(0, dtype=np.int64)
        assert np.array_equal(np.sort(got), np.arange(n))  # conservation
        assert int(out.counts.sum()) == n

    @given(p=st.integers(1, 5), k=st.integers(1, 12), seed=st.integers(0, 2**16))
    @SETTINGS
    def test_rows_arrive_intact_on_their_owner(self, p, k, seed):
        n, cp, cw, ci, ca, pts, w, a = _random_chunks(p, k, seed)
        comm = VirtualComm(p)
        out = shuffle_partition(comm, k, cp, cw, ci, ca)
        comm.close()
        owners = block_owner(k, p)
        for j in range(p):
            assert np.all(owners[out.assignment[j]] == j)  # ownership
            # payload columns still belong to their original id
            assert out.points[j].tobytes() == pts[out.ids[j]].tobytes()
            assert out.weights[j].tobytes() == w[out.ids[j]].tobytes()
            assert np.array_equal(out.assignment[j], a[out.ids[j]])

    def test_canonical_order_is_distribution_independent(self):
        n, cp, cw, ci, ca, pts, w, a = _random_chunks(3, 8, seed=5)
        comm = VirtualComm(3)
        out1 = shuffle_partition(comm, 8, cp, cw, ci, ca)
        # same rows dealt round-robin instead
        ids = np.arange(n, dtype=np.int64)
        rr = lambda arr: [arr[r::3] for r in range(3)]
        out2 = shuffle_partition(comm, 8, rr(pts), rr(w), rr(ids), rr(a))
        comm.close()
        for j in range(3):
            assert np.array_equal(out1.ids[j], out2.ids[j])
            assert out1.points[j].tobytes() == out2.points[j].tobytes()


class TestShuffleToDisk:
    def _run(self, tmp_path, n=400, k=6, p=3, seed=2):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 2))
        w = 0.5 + rng.random(n)
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=150)
        result = ondisk_distributed_kmeans(ds, k, p, config=CFG, rng=seed)
        return pts, w, result

    def test_matches_in_memory_shuffle_bit_for_bit(self, tmp_path):
        pts, w, result = self._run(tmp_path)
        n, p, k = pts.shape[0], result.nranks, result.centers.shape[0]
        output = shuffle_to_disk(result, tmp_path / "out")
        bounds = (np.arange(p + 1) * n) // p
        chunk = lambda arr: [arr[bounds[r]:bounds[r + 1]] for r in range(p)]
        comm = VirtualComm(p)
        mem = shuffle_partition(comm, k, chunk(pts), chunk(w),
                                chunk(np.arange(n, dtype=np.int64)),
                                chunk(np.asarray(result.assignment)))
        comm.close()
        for j in range(p):
            rank = output.load_rank(j)
            assert rank["points"].tobytes() == mem.points[j].tobytes()
            assert rank["weights"].tobytes() == mem.weights[j].tobytes()
            assert np.array_equal(rank["ids"], mem.ids[j])
            assert np.array_equal(rank["assignment"], mem.assignment[j])

    def test_verify_and_remap(self, tmp_path):
        pts, w, result = self._run(tmp_path, seed=7)
        output = shuffle_to_disk(result, tmp_path / "out")
        report = verify_shuffle(output)
        assert report["conserved"] and report["n"] == pts.shape[0]
        remap = output.remap.read()
        for j in range(output.nranks):
            ids_j = output.load_rank(j)["ids"]
            assert np.all(remap[ids_j, 0] == j)
            assert np.array_equal(remap[ids_j, 1], np.arange(ids_j.size))

    def test_reopen_from_manifest(self, tmp_path):
        _, _, result = self._run(tmp_path, seed=9)
        shuffle_to_disk(result, tmp_path / "out")
        reopened = ShuffleOutput.open(tmp_path / "out")
        assert verify_shuffle(reopened)["conserved"]

    def test_verify_detects_duplicated_id(self, tmp_path):
        _, _, result = self._run(tmp_path, seed=11)
        output = shuffle_to_disk(result, tmp_path / "out")
        ids_path = tmp_path / "out" / "rank-0000.ids.npy"
        ids = np.load(ids_path)
        ids[1] = ids[0]  # one id now appears twice, another vanishes
        np.save(ids_path, ids)
        with pytest.raises(ShuffleVerificationError):
            verify_shuffle(ShuffleOutput.open(tmp_path / "out"))

    def test_verify_detects_truncated_rank_file(self, tmp_path):
        _, _, result = self._run(tmp_path, seed=13)
        output = shuffle_to_disk(result, tmp_path / "out")
        ids_path = tmp_path / "out" / "rank-0001.ids.npy"
        np.save(ids_path, np.load(ids_path)[:-1])
        with pytest.raises(ShuffleVerificationError, match="manifest says"):
            verify_shuffle(ShuffleOutput.open(tmp_path / "out"))

    @pytest.mark.process_backend
    def test_process_backend_produces_identical_files(self, tmp_path):
        pts, w, result = self._run(tmp_path, seed=3)
        out_v = shuffle_to_disk(result, tmp_path / "v")
        out_p = shuffle_to_disk(result, tmp_path / "p", backend="process")
        assert verify_shuffle(out_p)["conserved"]
        for j in range(out_v.nranks):
            for fld in ("points", "weights", "ids", "assignment"):
                a = np.load(tmp_path / "v" / f"rank-{j:04d}.{fld}.npy")
                b = np.load(tmp_path / "p" / f"rank-{j:04d}.{fld}.npy")
                assert a.tobytes() == b.tobytes()
