"""Sharded on-disk dataset format: round-trip, digests, crash-safe resume."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.io.sharded import (
    MANIFEST_NAME,
    PARTIAL_MANIFEST_NAME,
    ShardDigestError,
    ShardedDataset,
    ShardedDatasetWriter,
    write_sharded,
)
from repro.io.spill import SpillStore

SETTINGS = settings(max_examples=10, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _data(n, dim, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, dim)), 0.25 + rng.random(n),
            rng.permutation(n).astype(np.int64))


class TestRoundTrip:
    @given(
        n=st.integers(1, 300),
        dim=st.integers(1, 4),
        shard_rows=st.integers(1, 97),
        with_weights=st.booleans(),
        with_ids=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @SETTINGS
    def test_write_read_bit_identity(self, tmp_path_factory, n, dim, shard_rows,
                                     with_weights, with_ids, seed):
        tmp = tmp_path_factory.mktemp("ds")
        pts, w, ids = _data(n, dim, seed)
        ds = write_sharded(tmp / "d", pts,
                           weights=w if with_weights else None,
                           ids=ids if with_ids else None,
                           shard_rows=shard_rows)
        assert ds.n == n and ds.dim == dim
        assert ds.nshards == -(-n // shard_rows)
        rpts, rw, rids = ds.load()
        assert rpts.tobytes() == pts.tobytes()
        assert (rw is None) == (not with_weights)
        if with_weights:
            assert rw.tobytes() == w.tobytes()
        if with_ids:
            assert np.array_equal(rids, ids)
        lo, hi = ds.bounding_box()
        assert np.array_equal(lo, pts.min(axis=0))
        assert np.array_equal(hi, pts.max(axis=0))
        ds.verify()  # digests hold for freshly written data

    @given(n=st.integers(1, 200), lo=st.integers(0, 199), span=st.integers(0, 199),
           seed=st.integers(0, 2**16))
    @SETTINGS
    def test_windowed_reads_match_full_load(self, tmp_path_factory, n, lo, span, seed):
        tmp = tmp_path_factory.mktemp("ds")
        pts, w, _ = _data(n, 2, seed)
        ds = write_sharded(tmp / "d", pts, weights=w, shard_rows=37)
        lo = min(lo, n)
        hi = min(lo + span, n)
        rpts, rw, _ = ds.read_rows(lo, hi)
        assert rpts.tobytes() == pts[lo:hi].tobytes()
        assert rw.tobytes() == w[lo:hi].tobytes()

    def test_tiles_concatenate_to_the_dataset(self, tmp_path):
        pts, w, _ = _data(150, 3, 0)
        ds = write_sharded(tmp_path / "d", pts, weights=w, shard_rows=40)
        got = np.concatenate([np.asarray(t) for _, t, _, _ in ds.iter_tiles(max_rows=17)])
        assert got.tobytes() == pts.tobytes()
        offsets = [off for off, _, _, _ in ds.iter_tiles(max_rows=17)]
        assert offsets == sorted(offsets)

    def test_pickles_as_directory_path(self, tmp_path):
        import pickle

        pts, _, _ = _data(30, 2, 1)
        ds = write_sharded(tmp_path / "d", pts, shard_rows=10)
        clone = pickle.loads(pickle.dumps(ds))
        assert clone.digest == ds.digest
        assert clone.load()[0].tobytes() == pts.tobytes()


class TestDigests:
    def test_corrupt_shard_detected(self, tmp_path):
        pts, w, _ = _data(100, 2, 2)
        ds = write_sharded(tmp_path / "d", pts, weights=w, shard_rows=30)
        victim = tmp_path / "d" / f"{ds.shards[1].name}.points.npy"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ShardDigestError, match="digest"):
            ds.verify()
        with pytest.raises(ShardDigestError):
            ShardedDataset(tmp_path / "d", verify=True)

    def test_missing_shard_detected(self, tmp_path):
        pts, _, _ = _data(100, 2, 3)
        ds = write_sharded(tmp_path / "d", pts, shard_rows=30)
        (tmp_path / "d" / f"{ds.shards[0].name}.points.npy").unlink()
        with pytest.raises(ShardDigestError, match="missing"):
            ds.verify()

    def test_tampered_manifest_detected(self, tmp_path):
        pts, _, _ = _data(50, 2, 4)
        write_sharded(tmp_path / "d", pts, shard_rows=20)
        manifest = tmp_path / "d" / MANIFEST_NAME
        body = json.loads(manifest.read_text())
        body["n"] = 49
        manifest.write_text(json.dumps(body))
        with pytest.raises(ShardDigestError, match="manifest digest"):
            ShardedDataset(tmp_path / "d")

    def test_digest_identifies_content_not_layout(self, tmp_path):
        # same rows, different shard size -> different manifests by design
        pts, _, _ = _data(60, 2, 5)
        a = write_sharded(tmp_path / "a", pts, shard_rows=60)
        b = write_sharded(tmp_path / "b", pts, shard_rows=60)
        c = write_sharded(tmp_path / "c", pts, shard_rows=13)
        assert a.digest == b.digest
        assert a.digest != c.digest


class TestResume:
    @given(n=st.integers(2, 200), cut=st.integers(1, 199), shard_rows=st.integers(1, 41),
           seed=st.integers(0, 2**16))
    @SETTINGS
    def test_resumed_build_equals_uninterrupted(self, tmp_path_factory, n, cut,
                                                shard_rows, seed):
        cut = min(cut, n - 1)
        # at least one full shard must have been flushed for a partial
        # manifest to exist at the crash point
        assume(cut >= shard_rows)
        tmp = tmp_path_factory.mktemp("ds")
        pts, w, _ = _data(n, 2, seed)
        whole = write_sharded(tmp / "whole", pts, weights=w, shard_rows=shard_rows)
        # interrupted build: first `cut` rows, then the writer is abandoned
        writer = ShardedDatasetWriter(tmp / "part", dim=2, shard_rows=shard_rows,
                                      with_weights=True)
        writer.append(pts[:cut], weights=w[:cut])
        del writer  # crash: no finalize
        assert (tmp / "part" / PARTIAL_MANIFEST_NAME).exists()
        resumed = ShardedDatasetWriter.resume(tmp / "part")
        done = resumed._rows_written
        assert done <= cut  # buffered rows were lost with the crash
        resumed.append(pts[done:], weights=w[done:])
        ds = resumed.finalize()
        assert ds.digest == whole.digest
        assert ds.load()[0].tobytes() == pts.tobytes()

    def test_resume_rejects_corrupted_completed_shard(self, tmp_path):
        pts, _, _ = _data(90, 2, 6)
        writer = ShardedDatasetWriter(tmp_path / "d", dim=2, shard_rows=30)
        writer.append(pts[:60])
        victim = tmp_path / "d" / "shard-000000.points.npy"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ShardDigestError):
            ShardedDatasetWriter.resume(tmp_path / "d")

    def test_open_of_partial_build_hints_at_resume(self, tmp_path):
        writer = ShardedDatasetWriter(tmp_path / "d", dim=2, shard_rows=10)
        writer.append(np.zeros((10, 2)))
        with pytest.raises(FileNotFoundError, match="resume"):
            ShardedDataset(tmp_path / "d")


class TestSpill:
    def test_handle_round_trip_and_windowed_io(self, tmp_path):
        store = SpillStore(tmp_path / "spill")
        arr = np.arange(24, dtype=np.float64).reshape(12, 2)
        h = store.put("x", arr)
        assert h.rows == 12 and h.row_bytes == 16
        assert np.array_equal(h.read(), arr)
        assert np.array_equal(h.read_rows(3, 7), arr[3:7])
        h.write_rows(5, np.full((2, 2), -1.0))
        arr[5:7] = -1.0
        assert np.array_equal(store.handle("x").read(), arr)
        assert np.array_equal(np.asarray(h), arr)  # __array__ for checkpoints

        # every way to get a handle records where the .npy header ends, and
        # the maps it opens see exactly the bytes np.load parses
        created = store.create("c", (7, 3), np.int32)
        empty = store.put("e", np.zeros((0, 2)))
        for name, handle in (("x", h), ("c", created), ("e", empty)):
            with open(handle.path, "rb") as fh:
                np.lib.format.read_magic(fh)
                np.lib.format.read_array_header_1_0(fh)
                assert handle.offset == fh.tell()
            assert store.handle(name) == handle
            on_disk = np.load(handle.path)
            for mode in ("r", "r+"):
                mapped = handle.open(mode)
                assert mapped.dtype == on_disk.dtype and mapped.shape == on_disk.shape
                assert np.array_equal(mapped, on_disk)
        mapped = created.open("r+")
        mapped[2] = [4, 5, 6]
        del mapped
        assert created.read()[2].tolist() == [4, 5, 6]
        assert created.read_rows(2, 3).tolist() == [[4, 5, 6]]

    def test_windowed_io_bounds_checked(self, tmp_path):
        store = SpillStore(tmp_path / "spill")
        h = store.put("x", np.zeros(5))
        with pytest.raises(IndexError):
            h.read_rows(2, 9)
        with pytest.raises(IndexError):
            h.write_rows(4, np.zeros(3))
