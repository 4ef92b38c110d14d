"""Out-of-core runner: bit-identity with the in-memory path, resume, dispatch."""

import numpy as np
import pytest

from repro.core.config import BalancedKMeansConfig
from repro.io.sharded import ShardedDataset, write_sharded
from repro.runtime.checkpoint import CheckpointError, CheckpointMismatchError, CheckpointStore
from repro.runtime.comm import make_comm
from repro.runtime.distributed_kmeans import distributed_balanced_kmeans
from repro.runtime.ondisk import ondisk_distributed_kmeans

CFG = BalancedKMeansConfig(epsilon=0.02)


def _points(n=600, dim=2, seed=11):
    rng = np.random.default_rng(seed)
    return rng.random((n, dim)), 0.5 + rng.random(n)


def _assert_same_partition(mem, dsk):
    assert mem.iterations == dsk.iterations
    assert mem.converged == dsk.converged
    assert np.array_equal(mem.assignment, np.asarray(dsk.assignment))
    assert mem.centers.tobytes() == dsk.centers.tobytes()
    assert mem.influence.tobytes() == dsk.influence.tobytes()
    assert mem.block_weights is not None and dsk.block_weights is not None
    assert mem.block_weights.tobytes() == dsk.block_weights.tobytes()


class TestBitIdentity:
    @pytest.mark.parametrize("p, cfg, warm", [
        pytest.param(1, CFG, False, id="1"),
        pytest.param(2, CFG, False, id="2"),
        pytest.param(4, CFG, False, id="4"),
        # the driver loop's other branches, on spill storage
        pytest.param(2, BalancedKMeansConfig(epsilon=0.02, use_bounds=False), False, id="2-no-bounds"),
        pytest.param(3, BalancedKMeansConfig(epsilon=0.02, use_erosion=False), False, id="3-no-erosion"),
        pytest.param(2, CFG, True, id="2-warm-start"),
    ])
    def test_virtual_backend_matches_in_memory(self, tmp_path, p, cfg, warm):
        pts, w = _points()
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=173)
        centers = pts[np.random.default_rng(5).choice(len(pts), 4, replace=False)] if warm else None
        mem = distributed_balanced_kmeans(pts, 4, p, weights=w, config=cfg, rng=7, centers=centers)
        dsk = ondisk_distributed_kmeans(ds, 4, p, config=cfg, rng=7, centers=centers)
        _assert_same_partition(mem, dsk)

    def test_unweighted(self, tmp_path):
        pts, _ = _points(seed=3)
        ds = write_sharded(tmp_path / "ds", pts, shard_rows=250)
        mem = distributed_balanced_kmeans(pts, 5, 3, config=CFG, rng=1)
        dsk = ondisk_distributed_kmeans(ds, 5, 3, config=CFG, rng=1)
        _assert_same_partition(mem, dsk)

    def test_with_sampled_init_rounds(self, tmp_path):
        # n/p > 2 * initial_sample_size so the doubling rounds actually run
        pts, w = _points(n=1200, seed=5)
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=333)
        mem = distributed_balanced_kmeans(pts, 6, 2, weights=w, config=CFG, rng=9)
        dsk = ondisk_distributed_kmeans(ds, 6, 2, config=CFG, rng=9)
        _assert_same_partition(mem, dsk)

    def test_shard_layout_does_not_matter(self, tmp_path):
        pts, w = _points(seed=21)
        a = write_sharded(tmp_path / "a", pts, weights=w, shard_rows=64)
        b = write_sharded(tmp_path / "b", pts, weights=w, shard_rows=600)
        ra = ondisk_distributed_kmeans(a, 4, 2, config=CFG, rng=2)
        rb = ondisk_distributed_kmeans(b, 4, 2, config=CFG, rng=2)
        assert np.array_equal(ra.assignment, rb.assignment)
        assert ra.centers.tobytes() == rb.centers.tobytes()

    @pytest.mark.process_backend
    def test_process_backend_matches_in_memory(self, tmp_path):
        pts, w = _points()
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=173)
        mem = distributed_balanced_kmeans(pts, 4, 2, weights=w, config=CFG, rng=7)
        dsk = ondisk_distributed_kmeans(ds, 4, 2, config=CFG, rng=7, backend="process")
        _assert_same_partition(mem, dsk)


class TestDispatch:
    def test_dataset_routes_to_ondisk_runner(self, tmp_path):
        pts, w = _points(seed=13)
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=200)
        via_dispatch = distributed_balanced_kmeans(ds, 4, 2, config=CFG, rng=4)
        direct = ondisk_distributed_kmeans(ds, 4, 2, config=CFG, rng=4)
        assert np.array_equal(via_dispatch.assignment, direct.assignment)
        assert via_dispatch.centers.tobytes() == direct.centers.tobytes()

    def test_path_string_accepted(self, tmp_path):
        pts, _ = _points(n=200, seed=17)
        write_sharded(tmp_path / "ds", pts, shard_rows=90)
        result = ondisk_distributed_kmeans(str(tmp_path / "ds"), 3, 2, config=CFG, rng=0)
        assert np.asarray(result.assignment).shape == (200,)

    def test_weights_argument_rejected_with_dataset(self, tmp_path):
        pts, w = _points(n=120, seed=19)
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=60)
        with pytest.raises(ValueError, match="weights"):
            distributed_balanced_kmeans(ds, 3, 2, weights=w, config=CFG, rng=0)

    def test_more_ranks_than_points_rejected(self, tmp_path):
        pts, w = _points(n=6, seed=20)
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=3)
        with pytest.raises(ValueError, match="nranks=8 exceeds the number of points n=6"):
            ondisk_distributed_kmeans(ds, 3, 8, config=CFG, rng=0, spill_dir=tmp_path / "spill")


class TestSpillTurns:
    """One rank turn per balance iteration, and no msync of spill maps.

    A count repeats exactly on any host; changing a pinned value must be
    explained in CHANGES.md.
    """

    def test_superstep_count_pinned(self, tmp_path):
        pts, w = _points()
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=173)
        dsk = ondisk_distributed_kmeans(ds, 4, 2, config=CFG, rng=7, spill_dir=tmp_path / "spill")
        mem = distributed_balanced_kmeans(pts, 4, 2, weights=w, config=CFG, rng=7)
        assert dsk.iterations == mem.iterations == 5
        assert dsk.ledger.supersteps == 44
        # the loop's supersteps are storage-independent; the two sorts' are not
        assert mem.ledger.supersteps == 41

    def test_ondisk_stream_problem(self, tmp_path):
        # the ondisk-stream benchmark partition
        rng = np.random.default_rng(3)
        pts = rng.random((20_000, 2))
        w = 0.5 + rng.random(20_000)
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=2_500)
        res = ondisk_distributed_kmeans(ds, 16, 4, rng=0, spill_dir=tmp_path / "spill")
        assert res.iterations == 42
        assert res.ledger.supersteps == 219

    def test_spill_maps_are_never_flushed(self, tmp_path, monkeypatch):
        flushes = []
        flush = np.memmap.flush
        monkeypatch.setattr(np.memmap, "flush", lambda self: flushes.append(1) or flush(self))
        pts, w = _points()
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=173)
        ondisk_distributed_kmeans(ds, 4, 2, config=CFG, rng=7, spill_dir=tmp_path / "spill")
        # TestBitIdentity shows the unflushed runs still match in memory
        assert flushes == []


class TestOndiskResume:
    def test_resume_from_every_checkpoint_is_bit_identical(self, tmp_path):
        pts, w = _points(seed=23)
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=211)
        full = ondisk_distributed_kmeans(ds, 4, 2, config=CFG, rng=7)
        store = CheckpointStore(tmp_path / "ckpt", keep=100)
        checkpointed = ondisk_distributed_kmeans(ds, 4, 2, config=CFG, rng=7, checkpoint=store)
        _assert_same_partition(checkpointed, full)
        assert store.candidates()
        for path in store.candidates():
            resumed = ondisk_distributed_kmeans(ds, 4, 2, config=CFG, rng=7,
                                                resume_from=str(path))
            _assert_same_partition(resumed, full)

    @pytest.mark.parametrize("p_resume", [1, 3])
    def test_resume_on_different_rank_count(self, tmp_path, p_resume):
        pts, w = _points(seed=29)
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=211)
        full = ondisk_distributed_kmeans(ds, 4, 2, config=CFG, rng=7)
        store = CheckpointStore(tmp_path / "ckpt", keep=100)
        ondisk_distributed_kmeans(ds, 4, 2, config=CFG, rng=7, checkpoint=store)
        mid = store.candidates()[len(store.candidates()) // 2]
        resumed = ondisk_distributed_kmeans(ds, 4, p_resume, config=CFG, rng=7,
                                            resume_from=str(mid))
        _assert_same_partition(resumed, full)
        assert resumed.nranks == 2  # logical shard count pinned by the snapshot

    def test_resume_rejects_a_different_dataset(self, tmp_path):
        pts, w = _points(seed=31)
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=211)
        other_pts, other_w = _points(seed=32)
        other = write_sharded(tmp_path / "other", other_pts, weights=other_w, shard_rows=211)
        store = CheckpointStore(tmp_path / "ckpt", keep=100)
        ondisk_distributed_kmeans(ds, 4, 2, config=CFG, rng=7, checkpoint=store)
        with pytest.raises(CheckpointMismatchError):
            ondisk_distributed_kmeans(other, 4, 2, config=CFG, rng=7, resume_from=store)

    def test_corrupt_fault_hits_an_ondisk_save(self, tmp_path):
        pts, w = _points(seed=23)
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=211)
        store = CheckpointStore(tmp_path / "ckpt", keep=100)
        with make_comm(2, faults="corrupt:index=1") as comm:
            ondisk_distributed_kmeans(ds, 4, 2, config=CFG, rng=7, comm=comm, checkpoint=store)
        assert comm.fault_plan.unfired() == []
        unloadable = []
        for path in store.candidates():
            try:
                store.load(path)
            except CheckpointError:
                unloadable.append(path)
        assert unloadable == [store.path_for(1)]

    def test_checkpoint_meta_records_manifest_digest(self, tmp_path):
        pts, w = _points(n=200, seed=37)
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=90)
        store = CheckpointStore(tmp_path / "ckpt")
        ondisk_distributed_kmeans(ds, 3, 2, config=CFG, rng=7, checkpoint=store)
        _, meta = store.load()
        assert meta["kind"] == "distributed-kmeans-ondisk"
        assert meta["data_digest"] == f"sharded:{ds.digest}"


class TestResultShape:
    def test_assignment_is_a_partition_in_original_order(self, tmp_path):
        pts, w = _points(n=240, seed=41)
        ds = write_sharded(tmp_path / "ds", pts, weights=w, shard_rows=100)
        k = 4
        result = ondisk_distributed_kmeans(ds, k, 2, config=CFG, rng=3)
        a = np.asarray(result.assignment)
        assert a.shape == (240,) and a.dtype == np.int64
        assert a.min() >= 0 and a.max() < k
        mem = distributed_balanced_kmeans(pts, k, 2, weights=w, config=CFG, rng=3)
        assert np.array_equal(a, mem.assignment)

    def test_shard_handles_cover_all_points_once(self, tmp_path):
        pts, _ = _points(n=240, seed=43)
        ds = write_sharded(tmp_path / "ds", pts, shard_rows=100)
        result = ondisk_distributed_kmeans(ds, 4, 3, config=CFG, rng=3)
        ids = np.concatenate([h.read() for h in result.shard_ids])
        assert np.array_equal(np.sort(ids), np.arange(240))
        for pts_h, a_h in zip(result.shard_points, result.shard_assignment):
            assert pts_h.rows == a_h.rows
