"""Kernel-backend registry, fallback behavior, and the device-engine contract.

The registry half runs everywhere (numpy is always available); the
``TestTorch*`` classes exercise the device-resident torch engine and skip
when torch is absent — the CI ``torch-cpu`` job installs the CPU wheel and
runs them for real.  Transfer-residency assertions read the engine's own
:attr:`transfer_log` rather than trusting docstrings: the point set crosses
the host boundary once per workspace, bounds once per device session, and
only k-sized vectors per sweep.
"""

import warnings

import numpy as np
import pytest

from repro.core import xp
from repro.core.assign import assign_points
from repro.core.balanced_kmeans import balanced_kmeans
from repro.core.config import BalancedKMeansConfig
from repro.core.kernels import SweepWorkspace
from repro.core.xp import (
    ENV_VAR,
    KernelBackendSpec,
    available_kernel_backends,
    kernel_backend_names,
    kernel_backend_spec,
    resolve_kernel_backend,
)


@pytest.fixture
def temp_backend():
    """Register throwaway backend specs; unregister and reset warn-once after."""
    registered = []

    def _register(name, *, probe, requires=None, fallback=None, device=False):
        spec = KernelBackendSpec(name, probe=probe, requires=requires,
                                 fallback=fallback, device=device)
        xp.register_kernel_backend(spec)
        registered.append(name)
        return spec

    yield _register
    for name in registered:
        xp._REGISTRY.pop(name, None)
    xp._reset_fallback_warnings()


@pytest.fixture
def no_env_override(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def _pts(n=400, d=2, seed=0):
    return np.random.default_rng(seed).random((n, d))


class TestRegistry:
    def test_builtin_backends_registered_in_order(self):
        names = kernel_backend_names()
        assert names[0] == "numpy"
        assert set(names) == {"numpy", "numba", "torch-cpu", "torch-cuda"}

    def test_numpy_always_available(self):
        assert "numpy" in available_kernel_backends()
        assert kernel_backend_spec("numpy").available

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ValueError, match="numpy"):
            kernel_backend_spec("cupy")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_kernel_backend("cupy")

    def test_registry_is_single_source_for_config(self, temp_backend, no_env_override):
        """A backend registered once is immediately a valid config value —
        the config whitelist is the registry, not a second copy."""
        temp_backend("fake-extra", probe=lambda: True)
        cfg = BalancedKMeansConfig(kernel_backend="fake-extra")
        assert cfg.kernel_backend == "fake-extra"
        assert resolve_kernel_backend("fake-extra") == "fake-extra"

    def test_registry_is_single_source_for_cli(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["distributed", "tiny", "--kernel-backend", "numpy"])
        assert args.kernel_backend == "numpy"
        with pytest.raises(SystemExit):
            parser.parse_args(["distributed", "tiny", "--kernel-backend", "cupy"])

    def test_register_rejects_unknown_fallback(self):
        with pytest.raises(ValueError, match="not registered"):
            xp.register_kernel_backend(
                KernelBackendSpec("fake-bad", probe=lambda: True, fallback="nonexistent")
            )
        assert "fake-bad" not in kernel_backend_names()


class TestFallbackWarnings:
    def test_unavailable_backend_warns_once_naming_dependency(
        self, temp_backend, no_env_override
    ):
        temp_backend("fake-missing", probe=lambda: False,
                     requires="fakedep", fallback="numpy")
        xp._reset_fallback_warnings()
        with pytest.warns(RuntimeWarning, match="fakedep"):
            assert resolve_kernel_backend("fake-missing") == "numpy"
        with warnings.catch_warnings():  # second resolution: silent
            warnings.simplefilter("error")
            assert resolve_kernel_backend("fake-missing") == "numpy"

    def test_fallback_chain_warns_per_hop(self, temp_backend, no_env_override):
        temp_backend("fake-mid", probe=lambda: False,
                     requires="middep", fallback="numpy")
        temp_backend("fake-top", probe=lambda: False,
                     requires="topdep", fallback="fake-mid")
        xp._reset_fallback_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert resolve_kernel_backend("fake-top") == "numpy"
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 2
        assert "topdep" in messages[0] and "'fake-mid'" in messages[0]
        assert "middep" in messages[1] and "'numpy'" in messages[1]

    def test_workspace_resolves_through_fallback(self, temp_backend, no_env_override):
        temp_backend("fake-missing", probe=lambda: False,
                     requires="fakedep", fallback="numpy")
        cfg = BalancedKMeansConfig(kernel_backend="fake-missing")
        with pytest.warns(RuntimeWarning, match="fake-missing"):
            ws = SweepWorkspace(_pts(64), cfg, 4)
        assert ws.backend == "numpy" and not ws.device_mode


class TestEnvOverride:
    def test_env_var_overrides_configured_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_kernel_backend("numba") == "numpy"  # no fallback warning needed
        cfg = BalancedKMeansConfig(kernel_backend="numba")
        ws = SweepWorkspace(_pts(64), cfg, 4)
        assert ws.backend == "numpy"

    def test_empty_env_var_is_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "  ")
        assert resolve_kernel_backend("numpy") == "numpy"

    def test_unknown_env_override_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "cupy")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_kernel_backend("numpy")


class TestInputNormalization:
    """float32 / non-contiguous inputs are promoted identically everywhere."""

    @pytest.mark.parametrize("backend", available_kernel_backends())
    def test_float32_points_promoted(self, backend, no_env_override):
        cfg = BalancedKMeansConfig(kernel_backend=backend)
        pts64 = _pts(300, seed=3)
        pts32 = pts64.astype(np.float32)
        ws = SweepWorkspace(pts32, cfg, 4)
        assert ws.points.dtype == np.float64
        assert ws.points.flags["C_CONTIGUOUS"]
        ref = balanced_kmeans(pts32.astype(np.float64), 4, config=cfg, rng=1)
        got = balanced_kmeans(pts32, 4, config=cfg, rng=1)
        np.testing.assert_array_equal(ref.assignment, got.assignment)
        np.testing.assert_array_equal(ref.centers, got.centers)

    @pytest.mark.parametrize("backend", available_kernel_backends())
    def test_noncontiguous_points_promoted(self, backend, no_env_override):
        cfg = BalancedKMeansConfig(kernel_backend=backend)
        base = _pts(600, d=4, seed=4)
        strided = base[::2, ::2]  # non-contiguous view, shape (300, 2)
        assert not strided.flags["C_CONTIGUOUS"]
        ws = SweepWorkspace(strided, cfg, 4)
        assert ws.points.flags["C_CONTIGUOUS"]
        ref = balanced_kmeans(np.ascontiguousarray(strided), 4, config=cfg, rng=2)
        got = balanced_kmeans(strided, 4, config=cfg, rng=2)
        np.testing.assert_array_equal(ref.assignment, got.assignment)
        np.testing.assert_array_equal(ref.centers, got.centers)


class TestWorkspaceBackendSwitch:
    def _sweep_args(self, ws, cfg, k=4):
        n = ws.points.shape[0]
        rng = np.random.default_rng(0)
        centers = ws.points[rng.choice(n, k, replace=False)].copy()
        influence = np.ones(k)
        assignment = np.zeros(n, dtype=np.int64)
        ub = np.full(n, np.inf)
        lb = np.zeros(n)
        return ws.points, centers, influence, assignment, ub, lb

    def test_backend_change_between_runs_rejected(self, temp_backend, no_env_override):
        """A workspace is bound to the backend it was built for: switching
        the config between runs must fail loudly, not silently sweep with
        stale caches of the old engine."""
        temp_backend("fake-host", probe=lambda: True)
        cfg = BalancedKMeansConfig(kernel_backend="numpy")
        ws = SweepWorkspace(_pts(128), cfg, 4)
        pts, centers, influence, assignment, ub, lb = self._sweep_args(ws, cfg)
        assign_points(pts, centers, influence, assignment, ub, lb, cfg, workspace=ws)
        switched = cfg.with_(kernel_backend="fake-host")
        with pytest.raises(ValueError, match="build a new SweepWorkspace"):
            assign_points(pts, centers, influence, assignment, ub, lb,
                          switched, workspace=ws)

    def test_same_backend_reuse_across_sweeps(self, no_env_override):
        cfg = BalancedKMeansConfig(kernel_backend="numpy")
        ws = SweepWorkspace(_pts(128), cfg, 4)
        pts, centers, influence, assignment, ub, lb = self._sweep_args(ws, cfg)
        first = assign_points(pts, centers, influence, assignment, ub, lb, cfg,
                              workspace=ws)
        second = assign_points(pts, centers, influence, assignment, ub, lb, cfg,
                               workspace=ws)
        assert first == pts.shape[0]
        assert second <= first  # bounds only tighten on the unchanged problem


needs_torch = pytest.mark.skipif(not xp.HAVE_TORCH, reason="torch not installed")


@needs_torch
class TestTorchEquivalence:
    """The equivalence gate for the device backends.

    Device sweeps use the same elementwise numerics as the host kernels;
    only the matmul accumulation order differs.  The gate therefore demands
    identical assignments and block weights and centers within 1e-9 — the
    same caveat the numba backend carries for float ties.
    """

    @pytest.mark.parametrize("k", [3, 8])
    def test_torch_cpu_matches_numpy(self, k, no_env_override):
        pts = _pts(600, seed=11)
        ref = balanced_kmeans(pts, k, config=BalancedKMeansConfig(kernel_backend="numpy"),
                              rng=7)
        got = balanced_kmeans(pts, k,
                              config=BalancedKMeansConfig(kernel_backend="torch-cpu"),
                              rng=7)
        np.testing.assert_array_equal(ref.assignment, got.assignment)
        np.testing.assert_allclose(ref.centers, got.centers, rtol=1e-9, atol=1e-12)
        ref_w = np.bincount(ref.assignment, minlength=k)
        got_w = np.bincount(got.assignment, minlength=k)
        np.testing.assert_array_equal(ref_w, got_w)

    def test_torch_cpu_weighted_block_weights_identical(self, no_env_override):
        rng = np.random.default_rng(5)
        pts = rng.random((500, 2))
        w = rng.integers(1, 5, 500).astype(np.float64)  # integer weights: exact sums
        ref = balanced_kmeans(pts, 6, weights=w,
                              config=BalancedKMeansConfig(kernel_backend="numpy"), rng=3)
        got = balanced_kmeans(pts, 6, weights=w,
                              config=BalancedKMeansConfig(kernel_backend="torch-cpu"), rng=3)
        np.testing.assert_array_equal(ref.assignment, got.assignment)
        for b in range(6):
            assert w[ref.assignment == b].sum() == w[got.assignment == b].sum()
        assert abs(ref.imbalance - got.imbalance) < 1e-9

    def test_single_sweep_assignments_identical(self, no_env_override):
        pts = _pts(400, seed=2)
        k = 5
        centers = pts[np.random.default_rng(1).choice(400, k, replace=False)].copy()
        influence = np.linspace(0.8, 1.2, k)
        results = {}
        for backend in ("numpy", "torch-cpu"):
            cfg = BalancedKMeansConfig(kernel_backend=backend)
            ws = SweepWorkspace(pts, cfg, k)
            assignment = np.zeros(400, dtype=np.int64)
            ub = np.full(400, np.inf)
            lb = np.zeros(400)
            assign_points(pts, centers, influence, assignment, ub, lb, cfg, workspace=ws)
            results[backend] = (assignment, ub, lb)
        np.testing.assert_array_equal(results["numpy"][0], results["torch-cpu"][0])
        np.testing.assert_allclose(results["numpy"][1], results["torch-cpu"][1],
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(results["numpy"][2], results["torch-cpu"][2],
                                   rtol=1e-9, atol=1e-12)

    def test_incremental_engine_disabled_in_device_mode(self, no_env_override):
        cfg = BalancedKMeansConfig(kernel_backend="torch-cpu")
        ws = SweepWorkspace(_pts(300), cfg, 4)
        assert ws.device_mode and not ws.incremental
        host = SweepWorkspace(_pts(300), cfg.with_(kernel_backend="numpy"), 4)
        assert host.incremental  # same config stays incremental on the host


@needs_torch
class TestTorchResidency:
    """Pin the transfer model with the engine's own accounting."""

    def _setup(self, n=300, k=4):
        cfg = BalancedKMeansConfig(kernel_backend="torch-cpu")
        pts = _pts(n, seed=9)
        ws = SweepWorkspace(pts, cfg, k)
        centers = pts[np.random.default_rng(3).choice(n, k, replace=False)].copy()
        influence = np.ones(k)
        ws.prepare(centers, influence)
        assignment = np.zeros(n, dtype=np.int64)
        ub = np.full(n, np.inf)
        lb = np.zeros(n)
        return ws, assignment, ub, lb

    def test_points_upload_once_per_workspace(self):
        ws, assignment, ub, lb = self._setup()
        h2d = ws.transfer_stats()["h2d"]
        points_uploads = h2d["points"]["count"]
        ws.begin_device_session(assignment, ub, lb)
        for _ in range(4):
            ws.device_sweep(assignment, ub, lb, use_bounds=True)
        ws.end_device_session()
        stats = ws.transfer_stats()
        assert stats["h2d"]["points"]["count"] == points_uploads
        # a second phase re-uploads centers, never the point set
        new_centers = ws.centers + 0.01
        ws.prepare(new_centers.copy(), np.ones(ws.k))
        assert ws.transfer_stats()["h2d"]["points"]["count"] == points_uploads

    def test_session_uploads_bounds_once(self):
        ws, assignment, ub, lb = self._setup()
        ws.begin_device_session(assignment, ub, lb)
        for _ in range(5):
            ws.device_sweep(assignment, ub, lb, use_bounds=True)
        ws.end_device_session()
        stats = ws.transfer_stats()
        # one upload each of assignment/ub/lb, flushed once at session end;
        # no per-sweep "bounds" traffic happened inside the session
        assert stats["h2d"]["session"]["count"] == 3
        assert stats["d2h"]["session"]["count"] == 3
        assert "bounds" not in stats["h2d"]
        assert "bounds" not in stats["d2h"]

    def test_non_session_sweeps_round_trip_bounds(self):
        """Outside a session (the distributed per-sweep closures) each sweep
        uploads and downloads the three bound arrays — and still never
        re-uploads the point set."""
        ws, assignment, ub, lb = self._setup()
        points_uploads = ws.transfer_stats()["h2d"]["points"]["count"]
        for _ in range(3):
            ws.device_sweep(assignment, ub, lb, use_bounds=True)
        stats = ws.transfer_stats()
        assert stats["h2d"]["bounds"]["count"] == 9  # 3 arrays x 3 sweeps
        assert stats["d2h"]["bounds"]["count"] == 9
        assert stats["h2d"]["points"]["count"] == points_uploads

    def test_session_mismatch_raises(self):
        ws, assignment, ub, lb = self._setup()
        ws.begin_device_session(assignment, ub, lb)
        try:
            with pytest.raises(RuntimeError, match="session"):
                ws.device_sweep(assignment.copy(), ub, lb, use_bounds=True)
        finally:
            ws.end_device_session()

    def test_session_flushes_device_state_to_host(self):
        ws, assignment, ub, lb = self._setup()
        before = assignment.copy()
        ws.begin_device_session(assignment, ub, lb)
        ws.device_sweep(assignment, ub, lb, use_bounds=True)
        ws.end_device_session()
        assert not np.array_equal(assignment, before) or np.all(np.isfinite(ub))
        assert np.all(assignment >= 0) and np.all(assignment < ws.k)
        assert np.all(np.isfinite(ub)) if ws.k > 1 else True
