"""Kernel-backend registry, fallback behavior and workspace backend binding.

Everything here runs without optional dependencies (numpy is always
available); fake backends registered through the registry stand in for
missing ones, and CI's numba step runs the file with the real second
backend installed.
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

    def _register(name, *, probe, requires=None, fallback=None):
        spec = KernelBackendSpec(name, probe=probe, requires=requires, fallback=fallback)
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
        assert set(names) == {"numpy", "numba"}

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
        assert ws.backend == "numpy"


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
        with pytest.raises(ValueError, match=f"{ENV_VAR}: unknown kernel backend 'cupy'"):
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

