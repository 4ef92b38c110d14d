"""Microbenchmarks of the hot kernels (profiling anchors + perf trajectory).

Not tied to a specific figure; these keep the per-kernel costs visible so
performance regressions in the core loops are caught by inspection of the
pytest-benchmark table.

The assignment-sweep benches additionally seed the repo's perf trajectory:
they time the pre-kernel-engine path (full-matrix sqrt + division, per-chunk
norms and boxes — preserved as ``top2_effective_reference``) against the
squared-space engine on the canonical ``n=200k, k=64, d=2`` workload and
write the measurements to the ``results/fresh/BENCH_kernels.json`` sidecar
(compared against the committed repo-root baseline; ``REPRO_UPDATE_BENCH=1``
rewrites the baseline too), so future PRs are held to the recorded ns/point.
"""

import os

import numpy as np
import pytest

from repro.core.assign import assign_points
from repro.core.bounds import init_bounds
from repro.core.config import BalancedKMeansConfig
from repro.core.kernels import HAVE_NUMBA, SweepWorkspace
from repro.core.xp import available_kernel_backends
from repro.geometry.boxes import BoundingBox
from repro.geometry.distances import top2_effective, top2_effective_reference
from repro.metrics.commvolume import comm_volumes
from repro.metrics.cut import edge_cut
from repro.mesh.delaunay import delaunay_mesh
from repro.partitioners.base import get_partitioner
from repro.runtime.comm import VirtualComm
from repro.runtime.distsort import distributed_sort
from repro.sfc.curves import sfc_index

N = 60_000
K = 64

# -- assignment-sweep trajectory workload (acceptance: n=200k, k=64, d=2) ----
SWEEP_N = 200_000
SWEEP_K = 64
SWEEP_D = 2
LEGACY_CHUNK = 8192  # the pre-kernel-engine default chunk size
BENCH_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_kernels.json")
_SWEEP_TIMINGS: dict[str, float] = {}


@pytest.fixture(scope="module")
def pts():
    return np.random.default_rng(0).random((N, 2))


@pytest.fixture(scope="module")
def mesh():
    return delaunay_mesh(20_000, rng=1)


def test_bench_hilbert_index(benchmark, pts):
    out = benchmark(lambda: sfc_index(pts))
    assert out.shape == (N,)


def test_bench_morton_index(benchmark, pts):
    benchmark(lambda: sfc_index(pts, curve="morton"))


def test_bench_top2_effective(benchmark, pts):
    centers = pts[:K]
    influence = np.ones(K)
    benchmark(lambda: top2_effective(pts[:8192], centers, influence))


def test_bench_assign_sweep_cold(benchmark, pts):
    """First sweep: all points evaluated (bounds force nothing)."""
    centers = pts[:: N // K][:K].copy()
    influence = np.ones(K)
    cfg = BalancedKMeansConfig()

    def run():
        assignment = np.zeros(N, dtype=np.int64)
        ub, lb = init_bounds(N)
        assign_points(pts, centers, influence, assignment, ub, lb, cfg)
        return assignment

    benchmark(run)


def test_bench_assign_sweep_warm(benchmark, pts):
    """Steady-state sweep: bounds certify everything (the 80% skip path)."""
    centers = pts[:: N // K][:K].copy()
    influence = np.ones(K)
    cfg = BalancedKMeansConfig()
    assignment = np.zeros(N, dtype=np.int64)
    ub, lb = init_bounds(N)
    assign_points(pts, centers, influence, assignment, ub, lb, cfg)
    benchmark(lambda: assign_points(pts, centers, influence, assignment, ub, lb, cfg))


def test_bench_edge_cut(benchmark, mesh):
    a = get_partitioner("RCB").partition_mesh(mesh, 16)
    benchmark(lambda: edge_cut(mesh, a, 16))


def test_bench_comm_volumes(benchmark, mesh):
    a = get_partitioner("RCB").partition_mesh(mesh, 16)
    benchmark(lambda: comm_volumes(mesh, a, 16))


def test_bench_distributed_sort(benchmark):
    rng = np.random.default_rng(2)
    keys = [rng.integers(0, 1 << 40, size=10_000) for _ in range(8)]

    def run():
        comm = VirtualComm(8)
        return distributed_sort(comm, keys)

    benchmark(run)


@pytest.mark.parametrize("tool", ["RCB", "MultiJagged", "HSFC"])
def test_bench_baseline_partition(benchmark, pts, tool):
    partitioner = get_partitioner(tool)
    benchmark(lambda: partitioner.partition(pts, K))


# ---------------------------------------------------------------------------
# Assignment-sweep trajectory: old path vs kernel engine -> BENCH_kernels.json
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_workload():
    """SFC-sorted points + spread centers, the state inside `balanced_kmeans`."""
    rng = np.random.default_rng(7)
    pts = rng.random((SWEEP_N, SWEEP_D))
    pts = pts[np.argsort(sfc_index(pts), kind="stable")]
    centers = pts[:: SWEEP_N // SWEEP_K][:SWEEP_K].copy()
    influence = rng.uniform(0.8, 1.2, SWEEP_K)
    return pts, centers, influence


def _legacy_sweep(pts, centers, influence, chunk_size, prune):
    """The pre-kernel-engine assignment sweep, reproduced faithfully:

    per-chunk bounding boxes rebuilt from raw points, per-chunk sqrt'd
    min/max box distances divided by influence, and a full ``(chunk, k)``
    sqrt + division inside the top-2 reduction.
    """
    n, k = pts.shape[0], centers.shape[0]
    assignment = np.empty(n, dtype=np.int64)
    ub, lb = np.empty(n), np.empty(n)
    for s in range(0, n, chunk_size):
        cpts = pts[s : s + chunk_size]
        cand = None
        if prune:
            bb = BoundingBox.from_points(cpts)
            min_eff = bb.min_dist(centers) / influence
            max_eff = bb.max_dist(centers) / influence
            threshold = np.partition(max_eff, 1)[1]
            cand = np.flatnonzero(min_eff <= threshold)
            if cand.shape[0] >= k:
                cand = None
        assign, best, second = top2_effective_reference(cpts, centers, influence, cand)
        assignment[s : s + chunk_size] = assign
        ub[s : s + chunk_size] = best
        lb[s : s + chunk_size] = second
    return assignment, ub, lb


def _engine_sweep_arrays(pts, k, cfg):
    workspace = SweepWorkspace(pts, cfg, k)
    assignment = np.zeros(pts.shape[0], dtype=np.int64)
    ub, lb = init_bounds(pts.shape[0])
    return workspace, assignment, ub, lb


def _record(name, seconds, backend):
    _SWEEP_TIMINGS[name] = seconds
    return {
        "bench": name,
        "n": SWEEP_N,
        "k": SWEEP_K,
        "d": SWEEP_D,
        "backend": backend,
        "chunk_size": LEGACY_CHUNK if name.startswith("sweep_legacy") else BalancedKMeansConfig().chunk_size,
        "seconds_min": seconds,
        "ns_per_point": seconds / SWEEP_N * 1e9,
    }


_BACKEND_OF = {
    "sweep_legacy_full": "reference",
    "sweep_legacy_pruned": "reference",
    "sweep_engine_full": "numpy",
    "sweep_engine_pruned": "numpy",
    "sweep_engine_full_numba": "numba",
}


def test_bench_sweep_legacy_full(benchmark, sweep_workload):
    """Old path, pruning off: the isolated full-matrix sqrt/div kernel."""
    pts, centers, influence = sweep_workload
    benchmark(lambda: _legacy_sweep(pts, centers, influence, LEGACY_CHUNK, prune=False))
    _record("sweep_legacy_full", benchmark.stats.stats.min, "reference")


def test_bench_sweep_legacy_pruned(benchmark, sweep_workload):
    """Old path with per-chunk boxes rebuilt from points every sweep."""
    pts, centers, influence = sweep_workload
    benchmark(lambda: _legacy_sweep(pts, centers, influence, LEGACY_CHUNK, prune=True))
    _record("sweep_legacy_pruned", benchmark.stats.stats.min, "reference")


def test_bench_sweep_engine_full(benchmark, sweep_workload):
    """New path, pruning off: squared-space kernel + cached norms/scratch."""
    pts, centers, influence = sweep_workload
    cfg = BalancedKMeansConfig(use_bounds=False, use_box_pruning=False, kernel_backend="numpy")
    workspace, assignment, ub, lb = _engine_sweep_arrays(pts, SWEEP_K, cfg)
    benchmark(lambda: assign_points(pts, centers, influence, assignment, ub, lb, cfg, workspace=workspace))
    _record("sweep_engine_full", benchmark.stats.stats.min, "numpy")


def test_bench_sweep_engine_pruned(benchmark, sweep_workload):
    """New path with the static-block boxes cached in the workspace."""
    pts, centers, influence = sweep_workload
    cfg = BalancedKMeansConfig(use_bounds=False, kernel_backend="numpy")
    workspace, assignment, ub, lb = _engine_sweep_arrays(pts, SWEEP_K, cfg)
    benchmark(lambda: assign_points(pts, centers, influence, assignment, ub, lb, cfg, workspace=workspace))
    _record("sweep_engine_pruned", benchmark.stats.stats.min, "numpy")


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
def test_bench_sweep_engine_full_numba(benchmark, sweep_workload):
    pts, centers, influence = sweep_workload
    cfg = BalancedKMeansConfig(use_bounds=False, use_box_pruning=False, kernel_backend="numba")
    workspace, assignment, ub, lb = _engine_sweep_arrays(pts, SWEEP_K, cfg)
    assign_points(pts, centers, influence, assignment, ub, lb, cfg, workspace=workspace)  # JIT warmup
    benchmark(lambda: assign_points(pts, centers, influence, assignment, ub, lb, cfg, workspace=workspace))
    _record("sweep_engine_full_numba", benchmark.stats.stats.min, "numba")


def test_sweep_equivalence_and_emit_json(sweep_workload, bench_json_writer):
    """Engine output is bit-identical to the old path; record the trajectory.

    Runs last in this module: collects the timings recorded above into the
    ``results/fresh/BENCH_kernels.json`` sidecar (machine-readable perf
    floor, compared against the committed repo-root baseline by
    ``check_regression.py``; ``REPRO_UPDATE_BENCH=1`` also rewrites the
    baseline) and checks the measured kernel speedup.
    """
    pts, centers, influence = sweep_workload
    for prune in (False, True):
        cfg = BalancedKMeansConfig(use_bounds=False, use_box_pruning=prune)
        # different chunkings (legacy default vs engine default) must still
        # agree bit-for-bit: chunking and pruning are exact optimisations
        legacy = _legacy_sweep(pts, centers, influence, LEGACY_CHUNK, prune=prune)
        workspace, assignment, ub, lb = _engine_sweep_arrays(pts, SWEEP_K, cfg)
        assign_points(pts, centers, influence, assignment, ub, lb, cfg, workspace=workspace)
        label = "pruned" if prune else "full"
        assert np.array_equal(legacy[0], assignment), f"assignments differ from old path ({label})"
        assert np.array_equal(legacy[1], ub), f"upper bounds differ from old path ({label})"
        assert np.array_equal(legacy[2], lb), f"lower bounds differ from old path ({label})"

    needed = {"sweep_legacy_full", "sweep_engine_full"}
    if not needed.issubset(_SWEEP_TIMINGS):
        pytest.skip("sweep benchmarks were deselected; nothing to record")
    speedup = _SWEEP_TIMINGS["sweep_legacy_full"] / _SWEEP_TIMINGS["sweep_engine_full"]
    speedups = {"kernel_full_sweep": speedup}
    if {"sweep_legacy_pruned", "sweep_engine_pruned"}.issubset(_SWEEP_TIMINGS):
        speedups["whole_sweep_with_pruning"] = (
            _SWEEP_TIMINGS["sweep_legacy_pruned"] / _SWEEP_TIMINGS["sweep_engine_pruned"]
        )
    payload = {
        "workload": {"n": SWEEP_N, "k": SWEEP_K, "d": SWEEP_D,
                     "legacy_chunk_size": LEGACY_CHUNK,
                     "engine_chunk_size": BalancedKMeansConfig().chunk_size},
        # which kernel backends this machine could measure: entries for the
        # others are absent, and check_regression.py skips them by name
        "kernel_backends_available": list(available_kernel_backends()),
        "entries": [
            _record(name, seconds, _BACKEND_OF[name])
            for name, seconds in sorted(_SWEEP_TIMINGS.items())
        ],
        "speedup_engine_vs_legacy": speedups,
    }
    written = bench_json_writer(BENCH_JSON, payload)
    print(f"\n[BENCH] kernel speedup (full sweep): {speedup:.2f}x "
          f"({_SWEEP_TIMINGS['sweep_legacy_full'] / SWEEP_N * 1e9:.0f} -> "
          f"{_SWEEP_TIMINGS['sweep_engine_full'] / SWEEP_N * 1e9:.0f} ns/point) "
          f"[written to {written}]")
    # regression guards with headroom below the controlled numbers (see the
    # committed BENCH_kernels.json: ~1.6x raw kernel, ~2.4x pruned sweep);
    # shared CI runners are too noisy for wall-clock thresholds, so there the
    # measurements are recorded but not enforced
    if os.environ.get("CI"):
        return
    assert speedup >= 1.2, f"kernel engine regressed: only {speedup:.2f}x vs legacy sweep"
    if "whole_sweep_with_pruning" in speedups:
        pruned = speedups["whole_sweep_with_pruning"]
        assert pruned >= 1.5, f"pruned sweep regressed: only {pruned:.2f}x vs legacy sweep"
