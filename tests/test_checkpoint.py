"""Superstep checkpointing: the store, resume bit-identity, and the CLI.

The contract under test (see ``repro.runtime.checkpoint``): a run that is
interrupted and resumed from any iteration-boundary snapshot produces the
**bit-identical** partition of the uninterrupted run — assignments, centers,
influence, imbalance and iteration count — on every backend, and even when
the resumed run uses a different rank count (the snapshot pins the logical
shard count; :class:`~repro.runtime.comm.ShardGrid` replays it on any
physical ``p``).  Checkpoints written under a different configuration or
dataset must be rejected loudly, and corrupt files must never be resumed
silently.
"""

import re
import warnings

import numpy as np
import pytest

from repro.core.balanced_kmeans import balanced_kmeans
from repro.core.config import BalancedKMeansConfig
from repro.runtime.checkpoint import (
    CheckpointConcurrencyError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
    _corrupt_file,
    data_digest,
    load_resume,
    restore_rng,
    rng_state,
    sanitize_run_id,
    validate_meta,
)
from repro.runtime.distributed_kmeans import distributed_balanced_kmeans


def _points(n=400, d=2, seed=0):
    return np.random.default_rng(seed).random((n, d))


def _assert_same_partition(a, b):
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.influence, b.influence)
    assert a.imbalance == b.imbalance
    assert a.iterations == b.iterations
    assert a.converged == b.converged


class TestStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        arrays = {"x": np.arange(6.0).reshape(2, 3), "ids": np.array([3, 1, 4])}
        meta = {"kind": "unit", "iteration": 7, "nested": {"a": [1, 2]}}
        path = store.save(arrays, meta)
        got_arrays, got_meta = store.load(path)
        np.testing.assert_array_equal(got_arrays["x"], arrays["x"])
        np.testing.assert_array_equal(got_arrays["ids"], arrays["ids"])
        assert got_meta["kind"] == "unit" and got_meta["iteration"] == 7
        assert got_meta["nested"] == {"a": [1, 2]}
        assert got_meta["ordinal"] == 0

    def test_reserved_keys_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError, match="reserved"):
            store.save({"__meta__": np.zeros(1)}, {"kind": "unit"})

    def test_rotation_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for i in range(5):
            store.save({"x": np.full(3, float(i))}, {"kind": "unit", "i": i})
        names = [p.name for p in store.candidates()]
        assert names == ["ckpt-000003.npz", "ckpt-000004.npz"]
        _, meta = store.load()
        assert meta["i"] == 4

    def test_ordinals_continue_across_store_instances(self, tmp_path):
        CheckpointStore(tmp_path).save({"x": np.zeros(1)}, {"kind": "unit"})
        path = CheckpointStore(tmp_path).save({"x": np.ones(1)}, {"kind": "unit"})
        assert path.name == "ckpt-000001.npz"

    def test_interleaved_stores_raise_loudly(self, tmp_path):
        """Two live stores on one namespace are detected, never clobbered."""
        a = CheckpointStore(tmp_path)
        b = CheckpointStore(tmp_path)  # opened before a writes: same ordinals
        a.save({"x": np.zeros(1)}, {"kind": "unit"})
        with pytest.raises(CheckpointConcurrencyError, match="concurrent checkpoint writer"):
            b.save({"x": np.ones(1)}, {"kind": "unit"})
        # the reverse interleaving is caught too: b opened after a's first
        # save continues past it, so a's *next* save sees a foreign ordinal
        c = CheckpointStore(tmp_path)
        c.save({"x": np.ones(1)}, {"kind": "unit"})
        with pytest.raises(CheckpointConcurrencyError):
            a.save({"x": np.full(1, 2.0)}, {"kind": "unit"})
        # a's first file survived both attempted clobbers
        arrays, meta = CheckpointStore(tmp_path).load(tmp_path / "ckpt-000000.npz")
        np.testing.assert_array_equal(arrays["x"], np.zeros(1))

    def test_run_id_namespaces_coexist(self, tmp_path):
        """Distinct run_ids share one root directory without interference."""
        a = CheckpointStore(tmp_path, run_id="sess-a")
        b = CheckpointStore(tmp_path, run_id="sess-b")
        for i in range(3):
            a.save({"x": np.full(1, float(i))}, {"kind": "unit", "i": i})
            b.save({"x": np.full(1, float(10 + i))}, {"kind": "unit", "i": 10 + i})
        assert a.directory == tmp_path / "sess-a"
        assert b.directory == tmp_path / "sess-b"
        _, meta_a = a.load()
        _, meta_b = b.load()
        assert meta_a["i"] == 2 and meta_b["i"] == 12
        # a fresh store on the same run_id resumes that namespace only
        resumed = CheckpointStore(tmp_path, run_id="sess-a")
        _, meta = resumed.load()
        assert meta["i"] == 2

    def test_run_id_is_sanitized(self, tmp_path):
        store = CheckpointStore(tmp_path, run_id="sess/../../evil id")
        assert store.directory.parent == tmp_path  # never escapes the root
        assert "/" not in store.directory.name
        assert store.directory.name not in (".", "..")
        assert sanitize_run_id("a b/c") == "a_b_c"
        with pytest.raises(ValueError, match="run_id"):
            sanitize_run_id("///")

    def test_corrupt_file_rejected_explicitly(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save({"x": np.arange(64.0)}, {"kind": "unit"})
        _corrupt_file(path)
        with pytest.raises(CheckpointError):
            store.load(path)

    def test_corrupt_newest_falls_back_with_warning(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"x": np.zeros(8)}, {"kind": "unit", "i": 0})
        bad = store.save({"x": np.ones(8)}, {"kind": "unit", "i": 1})
        _corrupt_file(bad)
        with pytest.warns(UserWarning, match="corrupt"):
            _, meta = store.load()
        assert meta["i"] == 0

    def test_all_corrupt_is_a_loud_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _corrupt_file(store.save({"x": np.zeros(8)}, {"kind": "unit"}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(CheckpointError, match="no valid checkpoint"):
                store.load()

    def test_empty_store_load_is_a_loud_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            CheckpointStore(tmp_path).load()

    def test_ensure_coerces_paths_and_stores(self, tmp_path):
        assert CheckpointStore.ensure(None) is None
        store = CheckpointStore(tmp_path)
        assert CheckpointStore.ensure(store) is store
        made = CheckpointStore.ensure(str(tmp_path / "sub"))
        assert isinstance(made, CheckpointStore)
        made.save({"x": np.zeros(1)}, {"kind": "unit"})
        assert (tmp_path / "sub" / "ckpt-000000.npz").exists()

    def test_load_resume_accepts_store_dir_and_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save({"x": np.arange(3.0)}, {"kind": "unit", "i": 0})
        for source in (store, str(tmp_path), str(path)):
            arrays, meta = load_resume(source)
            np.testing.assert_array_equal(arrays["x"], np.arange(3.0))
            assert meta["kind"] == "unit"

    def test_data_digest_sensitive_to_values_shape_dtype(self):
        x = np.arange(6.0)
        base = data_digest(x)
        assert data_digest(x + 1) != base
        assert data_digest(x.reshape(2, 3)) != base
        assert data_digest(x.astype(np.float32)) != base
        assert data_digest(x, extra="salt") != base
        assert data_digest(x) == base

    def test_validate_meta_mismatches_are_loud(self):
        meta = {"kind": "distributed-kmeans", "config_digest": "abc",
                "data_digest": "xyz", "n": 100}
        validate_meta(meta, kind="distributed-kmeans", config_digest="abc",
                      input_digest="xyz", checks=[("n", 100)])
        with pytest.raises(CheckpointMismatchError, match="cannot resume"):
            validate_meta(meta, kind="serial-kmeans")
        with pytest.raises(CheckpointMismatchError, match="config"):
            validate_meta(meta, kind="distributed-kmeans", config_digest="other")
        with pytest.raises(CheckpointMismatchError, match="data"):
            validate_meta(meta, kind="distributed-kmeans", input_digest="other")
        with pytest.raises(CheckpointMismatchError, match="n"):
            validate_meta(meta, kind="distributed-kmeans", checks=[("n", 999)])

    def test_rng_state_roundtrips_through_json_meta(self, tmp_path):
        gen = np.random.default_rng(42)
        gen.random(17)  # advance
        store = CheckpointStore(tmp_path)
        store.save({"x": np.zeros(1)}, {"kind": "unit", "rng_state": rng_state(gen)})
        _, meta = store.load()
        twin = restore_rng(meta["rng_state"])
        np.testing.assert_array_equal(gen.random(8), twin.random(8))


class TestDistributedResume:
    CFG = BalancedKMeansConfig(epsilon=0.02)

    def _full(self, pts, k=4, p=4):
        return distributed_balanced_kmeans(pts, k, p, config=self.CFG, rng=7)

    # every=3: most iteration boundaries carry their pending bounds
    # relaxations into the next sweep, while a due checkpoint applies them
    # first; both paths must resume bit-identically
    @pytest.mark.parametrize("every", [1, 3])
    def test_resume_from_every_checkpoint_is_bit_identical(self, tmp_path, every):
        pts = _points()
        full = self._full(pts)
        store = CheckpointStore(tmp_path, keep=100)
        checkpointed = distributed_balanced_kmeans(
            pts, 4, 4, config=self.CFG, rng=7, checkpoint=store, checkpoint_every=every)
        _assert_same_partition(full, checkpointed)
        assert len(store.candidates()) >= 2
        for path in store.candidates():
            resumed = distributed_balanced_kmeans(
                pts, 4, 4, config=self.CFG, rng=7, resume_from=str(path))
            _assert_same_partition(full, resumed)

    @pytest.mark.parametrize("p_resume", [1, 2, 3, 6])
    def test_resume_on_different_rank_count(self, tmp_path, p_resume):
        pts = _points()
        full = self._full(pts)
        store = CheckpointStore(tmp_path, keep=100)
        distributed_balanced_kmeans(pts, 4, 4, config=self.CFG, rng=7, checkpoint=store)
        mid = store.candidates()[len(store.candidates()) // 2]
        resumed = distributed_balanced_kmeans(
            pts, 4, p_resume, config=self.CFG, rng=7, resume_from=str(mid))
        _assert_same_partition(full, resumed)
        # the logical shard count is pinned by the snapshot, not by p
        assert resumed.nranks == 4

    def test_checkpoint_every_thins_snapshots(self, tmp_path):
        pts = _points(n=300)
        store = CheckpointStore(tmp_path, keep=100)
        result = distributed_balanced_kmeans(pts, 4, 2, config=self.CFG, rng=7,
                                             checkpoint=store, checkpoint_every=3)
        ordinals = [int(re.search(r"(\d+)\.npz$", p.name).group(1))
                    for p in store.candidates()]
        assert len(ordinals) <= result.iterations // 3 + 1
        _, meta = store.load()
        assert meta["iteration"] % 3 == 0

    def test_wrong_config_rejected(self, tmp_path):
        pts = _points(n=300)
        store = CheckpointStore(tmp_path)
        distributed_balanced_kmeans(pts, 4, 2, config=self.CFG, rng=7, checkpoint=store)
        other = self.CFG.with_(epsilon=0.10)
        with pytest.raises(CheckpointMismatchError, match="config"):
            distributed_balanced_kmeans(pts, 4, 2, config=other, rng=7,
                                        resume_from=store)

    def test_wrong_dataset_rejected(self, tmp_path):
        pts = _points(n=300)
        store = CheckpointStore(tmp_path)
        distributed_balanced_kmeans(pts, 4, 2, config=self.CFG, rng=7, checkpoint=store)
        with pytest.raises(CheckpointMismatchError, match="data"):
            distributed_balanced_kmeans(_points(n=300, seed=9), 4, 2, config=self.CFG,
                                        rng=7, resume_from=store)

    def test_serial_checkpoint_resumes_on_two_ranks(self, tmp_path):
        """A serial checkpoint is a one-shard checkpoint: any rank count resumes it."""
        pts = _points(n=300)
        full = balanced_kmeans(pts, 4, config=self.CFG, rng=7)
        store = CheckpointStore(tmp_path, keep=100)
        balanced_kmeans(pts, 4, config=self.CFG, rng=7, checkpoint=store)
        mid = store.candidates()[len(store.candidates()) // 2]
        resumed = distributed_balanced_kmeans(pts, 4, 2, config=self.CFG, rng=7,
                                              resume_from=str(mid))
        _assert_same_partition(full, resumed)
        assert resumed.nranks == 1

    def test_distributed_checkpoint_resumes_serially(self, tmp_path):
        pts = _points(n=300)
        full = self._full(pts, p=3)
        store = CheckpointStore(tmp_path, keep=100)
        distributed_balanced_kmeans(pts, 4, 3, config=self.CFG, rng=7, checkpoint=store)
        mid = store.candidates()[len(store.candidates()) // 2]
        _assert_same_partition(full, balanced_kmeans(pts, 4, config=self.CFG, rng=7,
                                                     resume_from=str(mid)))

    @pytest.mark.process_backend
    def test_process_checkpoint_resumes_on_virtual_and_back(self, tmp_path):
        pts = _points(n=300)
        full = distributed_balanced_kmeans(pts, 4, 2, config=self.CFG, rng=7,
                                           backend="process")
        store = CheckpointStore(tmp_path, keep=100)
        distributed_balanced_kmeans(pts, 4, 2, config=self.CFG, rng=7,
                                    backend="process", checkpoint=store)
        mid = store.candidates()[len(store.candidates()) // 2]
        on_virtual = distributed_balanced_kmeans(
            pts, 4, 3, config=self.CFG, rng=7, backend="virtual", resume_from=str(mid))
        on_process = distributed_balanced_kmeans(
            pts, 4, 1, config=self.CFG, rng=7, backend="process", resume_from=str(mid))
        _assert_same_partition(full, on_virtual)
        _assert_same_partition(full, on_process)


class TestSerialResume:
    CFG = BalancedKMeansConfig(epsilon=0.02)

    def test_resume_is_bit_identical(self, tmp_path):
        pts = _points(n=500)
        full = balanced_kmeans(pts, 5, config=self.CFG, rng=3)
        store = CheckpointStore(tmp_path, keep=100)
        balanced_kmeans(pts, 5, config=self.CFG, rng=3, checkpoint=store)
        for path in (store.candidates()[0], store.candidates()[-1]):
            resumed = balanced_kmeans(pts, 5, config=self.CFG, rng=3,
                                      resume_from=str(path))
            _assert_same_partition(full, resumed)
            assert len(resumed.history) == len(full.history)

    def test_wrong_config_rejected(self, tmp_path):
        pts = _points(n=300)
        store = CheckpointStore(tmp_path)
        balanced_kmeans(pts, 4, config=self.CFG, rng=3, checkpoint=store)
        with pytest.raises(CheckpointMismatchError, match="config"):
            balanced_kmeans(pts, 4, config=self.CFG.with_(use_sampling=False),
                            rng=3, resume_from=store)


class TestRepartitionResume:
    def test_resume_reproduces_remaining_steps(self, tmp_path):
        from repro.experiments import repartitioning

        kwargs = dict(n=600, k=5, steps=3, seed=1, checkpoint_dir=str(tmp_path))
        rows = repartitioning.run(**kwargs)
        # lose the last step's snapshot: resume must redo exactly that step
        store = CheckpointStore(tmp_path)
        store.candidates()[-1].unlink()
        again = repartitioning.run(**kwargs)
        assert again == rows

    def test_parameter_mismatch_rejected(self, tmp_path):
        from repro.experiments import repartitioning

        repartitioning.run(n=600, k=5, steps=2, seed=1, checkpoint_dir=str(tmp_path))
        with pytest.raises(CheckpointMismatchError, match="provenance"):
            repartitioning.run(n=600, k=6, steps=2, seed=1, checkpoint_dir=str(tmp_path))


class TestCLI:
    def test_distributed_checkpoint_then_resume(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = str(tmp_path / "ck")
        main(["distributed", "rgg2d", "-k", "4", "-p", "2", "--scale", "0.05",
              "--checkpoint-dir", ckpt])
        full = capsys.readouterr().out
        main(["resume", ckpt, "-p", "3"])
        resumed = capsys.readouterr().out
        row_full = next(ln for ln in full.splitlines() if "Geographer" in ln).split()
        row_res = next(ln for ln in resumed.splitlines() if "Geographer" in ln).split()
        # identical metrics, wall-clock column aside
        assert row_full[3:] == row_res[3:]
        assert "resuming distributed run" in resumed

    def test_resume_unknown_kind_fails_loudly(self, tmp_path):
        from repro.cli import main

        store = CheckpointStore(tmp_path)
        store.save({"x": np.zeros(1)}, {"kind": "mystery"})
        with pytest.raises(SystemExit, match="mystery"):
            main(["resume", str(tmp_path)])
