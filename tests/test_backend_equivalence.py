"""Cross-backend equivalence: all execution backends agree bit-for-bit.

The virtual backend simulates ranks in the driver process; the process
backend runs each rank as a real worker process with shared-memory point
arrays and pickled collectives over pipes; the MPI backend runs each rank
as a real ``mpiexec``-launched process with rank-resident arrays.  Because
every backend executes the same rank kernels on the same data and combines
collectives with the same code in the same rank order, every result —
assignments, centers, imbalance, sorted orders, SpMV outputs — must be
*bit-identical*, not just close.  These tests pin that contract for
p in {1, 2, 4} and k in {3, 8}; the MPI leg (``TestMPIEquivalence``) shells
out to ``mpiexec -n 4`` and skips itself when MPI is unavailable.
"""

import json

import numpy as np
import pytest

from repro.core.config import BalancedKMeansConfig
from repro.runtime.comm import make_comm
from repro.runtime.distributed_kmeans import distributed_balanced_kmeans
from repro.runtime.distsort import distributed_sort
from repro.spmv.distspmv import distributed_spmv

pytestmark = pytest.mark.process_backend

RANK_COUNTS = (1, 2, 4)
BLOCK_COUNTS = (3, 8)


def _pts(n=900, d=2, seed=0):
    return np.random.default_rng(seed).random((n, d))


def _mesh(n=700, seed=0):
    from repro.mesh.rgg import rgg_mesh

    return rgg_mesh(n, dim=2, rng=seed)


class TestKMeansEquivalence:
    @pytest.mark.parametrize("nranks", RANK_COUNTS)
    @pytest.mark.parametrize("k", BLOCK_COUNTS)
    def test_bit_identical_partition(self, nranks, k):
        pts = _pts()
        virt = distributed_balanced_kmeans(pts, k=k, nranks=nranks, rng=7, backend="virtual")
        proc = distributed_balanced_kmeans(pts, k=k, nranks=nranks, rng=7, backend="process")
        np.testing.assert_array_equal(virt.assignment, proc.assignment)
        np.testing.assert_array_equal(virt.centers, proc.centers)
        assert virt.imbalance == proc.imbalance
        assert virt.iterations == proc.iterations
        assert virt.converged == proc.converged
        assert virt.ledger.supersteps == proc.ledger.supersteps

    def test_weighted_equivalence(self):
        rng = np.random.default_rng(3)
        pts = rng.random((800, 2))
        w = rng.uniform(1.0, 5.0, 800)
        virt = distributed_balanced_kmeans(pts, k=5, nranks=4, weights=w, rng=1, backend="virtual")
        proc = distributed_balanced_kmeans(pts, k=5, nranks=4, weights=w, rng=1, backend="process")
        np.testing.assert_array_equal(virt.assignment, proc.assignment)
        np.testing.assert_array_equal(virt.centers, proc.centers)

    def test_warm_start_equivalence(self):
        pts = _pts(seed=5)
        cold = distributed_balanced_kmeans(pts, k=4, nranks=2, rng=2, backend="virtual")
        virt = distributed_balanced_kmeans(pts, k=4, nranks=2, rng=2,
                                           centers=cold.centers, backend="virtual")
        proc = distributed_balanced_kmeans(pts, k=4, nranks=2, rng=2,
                                           centers=cold.centers, backend="process")
        np.testing.assert_array_equal(virt.assignment, proc.assignment)
        np.testing.assert_array_equal(virt.centers, proc.centers)

    def test_no_sampling_config_equivalence(self):
        pts = _pts(seed=9)
        cfg = BalancedKMeansConfig(use_sampling=False)
        virt = distributed_balanced_kmeans(pts, k=6, nranks=3, config=cfg, rng=4, backend="virtual")
        proc = distributed_balanced_kmeans(pts, k=6, nranks=3, config=cfg, rng=4, backend="process")
        np.testing.assert_array_equal(virt.assignment, proc.assignment)
        np.testing.assert_array_equal(virt.centers, proc.centers)

    @pytest.mark.parametrize("nranks", RANK_COUNTS)
    def test_incremental_engine_equivalence(self, nranks):
        """{no bounds, bounds} x {virtual, process}: the incremental sweep
        engine, which runs with the bounds, changes no result on any
        backend.

        Integer weights keep every weight sum exact in float64, so even the
        delta-maintained block weights cannot drift.
        """
        rng = np.random.default_rng(21)
        pts = rng.random((900, 2))
        w = rng.integers(1, 5, 900).astype(np.float64)
        runs = {}
        for use_bounds in (False, True):
            cfg = BalancedKMeansConfig(use_bounds=use_bounds)
            for backend in ("virtual", "process"):
                runs[(use_bounds, backend)] = distributed_balanced_kmeans(
                    pts, k=8, nranks=nranks, weights=w, rng=7, config=cfg, backend=backend
                )
        reference = runs[(False, "virtual")]
        for key, res in runs.items():
            np.testing.assert_array_equal(reference.assignment, res.assignment,
                                          err_msg=f"assignment diverged for {key}")
            np.testing.assert_array_equal(reference.centers, res.centers,
                                          err_msg=f"centers diverged for {key}")
            np.testing.assert_array_equal(reference.influence, res.influence,
                                          err_msg=f"influence diverged for {key}")
            assert reference.imbalance == res.imbalance, f"imbalance diverged for {key}"
            assert reference.iterations == res.iterations

    def test_process_ledger_is_measured(self):
        pts = _pts(n=400)
        proc = distributed_balanced_kmeans(pts, k=3, nranks=2, rng=0, backend="process")
        assert proc.measured and proc.backend == "process"
        assert proc.ledger.compute_seconds > 0
        assert proc.ledger.supersteps > 0
        assert "dispatch" in proc.ledger.collective_counts
        virt = distributed_balanced_kmeans(pts, k=3, nranks=2, rng=0, backend="virtual")
        assert not virt.measured and virt.backend == "virtual"
        assert "dispatch" not in virt.ledger.collective_counts


class TestSortEquivalence:
    @pytest.mark.parametrize("nranks", RANK_COUNTS)
    def test_keys_and_payload_bit_identical(self, nranks):
        rng = np.random.default_rng(11)
        keys = [rng.integers(0, 1 << 40, size=rng.integers(5, 60)) for _ in range(nranks)]
        payloads = [np.column_stack([kk.astype(np.float64), rng.random(kk.size)]) for kk in keys]
        with make_comm(nranks, backend="virtual") as vc:
            vkeys, vpay = distributed_sort(vc, [k.copy() for k in keys],
                                           [p.copy() for p in payloads])
        with make_comm(nranks, backend="process") as pc:
            pkeys, ppay = distributed_sort(pc, [k.copy() for k in keys],
                                           [p.copy() for p in payloads])
        assert len(vkeys) == len(pkeys) == nranks
        for r in range(nranks):
            np.testing.assert_array_equal(vkeys[r], pkeys[r])
            np.testing.assert_array_equal(vpay[r], ppay[r])

    @pytest.mark.parametrize("nranks", RANK_COUNTS)
    def test_no_payload_bit_identical(self, nranks):
        rng = np.random.default_rng(13)
        keys = [rng.random(20 + 7 * r) for r in range(nranks)]
        with make_comm(nranks, backend="virtual") as vc:
            vkeys, _ = distributed_sort(vc, [k.copy() for k in keys])
        with make_comm(nranks, backend="process") as pc:
            pkeys, _ = distributed_sort(pc, [k.copy() for k in keys])
        for r in range(nranks):
            np.testing.assert_array_equal(vkeys[r], pkeys[r])


class TestSpmvEquivalence:
    @pytest.mark.parametrize("nranks", RANK_COUNTS)
    @pytest.mark.parametrize("k", BLOCK_COUNTS)
    def test_product_bit_identical(self, nranks, k):
        mesh = _mesh()
        assignment = np.random.default_rng(1).integers(0, k, size=mesh.n)
        assignment[:k] = np.arange(k)  # every block non-empty
        x = np.random.default_rng(2).random(mesh.n)
        y_serial, t_serial = distributed_spmv(mesh, assignment, k, x)
        y_virt, t_virt = distributed_spmv(mesh, assignment, k, x,
                                          nranks=nranks, backend="virtual")
        y_proc, t_proc = distributed_spmv(mesh, assignment, k, x,
                                          nranks=nranks, backend="process")
        np.testing.assert_array_equal(y_serial, y_virt)
        np.testing.assert_array_equal(y_serial, y_proc)
        assert t_serial == t_virt == t_proc  # modeled comm time: backend-independent
        np.testing.assert_allclose(y_proc, mesh.to_scipy() @ x)

    def test_measured_ledger_on_explicit_comm(self):
        mesh = _mesh(300)
        k = 4
        assignment = np.random.default_rng(0).integers(0, k, size=mesh.n)
        x = np.random.default_rng(1).random(mesh.n)
        with make_comm(2, backend="process") as comm:
            y, _ = distributed_spmv(mesh, assignment, k, x, comm=comm)
            assert comm.ledger.supersteps == 1
            assert comm.ledger.stages.get("spmv", 0.0) > 0
        np.testing.assert_allclose(y, mesh.to_scipy() @ x)


class TestMPIEquivalence:
    """MPI vs virtual bit-identity, through one real ``mpiexec -n 4`` launch.

    The launch runs :mod:`repro.runtime.mpi_main`'s ``equivalence`` command
    (which already self-checks in the driver) and dumps the MPI-side
    results; this side *independently* recomputes the identical cases on
    the virtual backend — same case definitions, imported from
    ``mpi_main`` — and demands bit-identical assignments, centers,
    imbalance, sorted orders, and SpMV outputs for every rank count.
    """

    pytestmark = pytest.mark.mpi_backend

    @pytest.fixture(scope="class")
    def mpi_results(self, mpiexec_run, tmp_path_factory):
        out = tmp_path_factory.mktemp("mpi-equivalence") / "results.json"
        res = mpiexec_run(
            4,
            ["-m", "repro.runtime.mpi_main", "equivalence",
             "--ranks", "1", "2", "4", "--json", str(out)],
        )
        assert res.returncode == 0, f"mpiexec equivalence run failed:\n{res.stdout}\n{res.stderr}"
        assert "PASS" in res.stdout
        return json.loads(out.read_text())

    @pytest.mark.parametrize("nranks", RANK_COUNTS)
    def test_bit_identical_to_virtual(self, mpi_results, nranks):
        from repro.runtime.mpi_main import compare_cases, equivalence_cases

        got = mpi_results[str(nranks)]
        assert got["_backend"] == "mpi" and got["_measured"] is True
        assert got["_supersteps"] > 0
        reference = equivalence_cases(nranks, backend="virtual")
        assert compare_cases(got, reference, label=f"p={nranks}: ") == []


class TestEnvSelection:
    def test_env_var_selects_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        pts = _pts(n=300)
        res = distributed_balanced_kmeans(pts, k=3, nranks=2, rng=0)
        assert res.backend == "process" and res.measured
        monkeypatch.setenv("REPRO_BACKEND", "virtual")
        res_v = distributed_balanced_kmeans(pts, k=3, nranks=2, rng=0)
        np.testing.assert_array_equal(res.assignment, res_v.assignment)

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        pts = _pts(n=300)
        res = distributed_balanced_kmeans(pts, k=3, nranks=2, rng=0, backend="virtual")
        assert res.backend == "virtual"
