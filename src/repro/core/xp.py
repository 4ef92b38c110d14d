"""Kernel-backend registry for the sweep engine.

The assignment-sweep kernels (:mod:`repro.core.kernels`,
:mod:`repro.geometry.distances`) run on one of two registered kernel
backends:

==============  ==========================================================
``numpy``       vectorised squared-space kernels (always available)
``numba``       fused JIT loops over the same arrays (needs ``numba``)
==============  ==========================================================

Both run the one host sweep over numpy arrays — the numba kernels JIT over
them — so every cache, bound and incremental aggregate is shared, and
results stay bit-identical between them away from floating-point ties.

This registry is the single source of truth for backend names: config
validation (:class:`repro.core.config.BalancedKMeansConfig`), the CLI
``--kernel-backend`` flag and the workspace resolver all consult it, so a
new backend registers in exactly one place.

Resolution rules (:func:`resolve_kernel_backend`):

- the ``REPRO_KERNEL_BACKEND`` environment variable, when set and
  non-empty, overrides the configured name (mirrors ``REPRO_BACKEND`` for
  the execution backends; lets a whole run switch engines without touching
  configs); an unregistered name there raises a :class:`ValueError` that
  names the variable;
- an unavailable backend degrades along its registered fallback chain
  (``numba`` → ``numpy``) and emits a **one-time** :class:`RuntimeWarning`
  naming the missing dependency — behavior is otherwise identical to the
  requested backend's fallback, so configs remain portable across
  environments.
"""

from __future__ import annotations

import importlib.util
import os
import warnings
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "HAVE_NUMBA",
    "KernelBackendSpec",
    "register_kernel_backend",
    "kernel_backend_names",
    "kernel_backend_spec",
    "available_kernel_backends",
    "resolve_kernel_backend",
]

ENV_VAR = "REPRO_KERNEL_BACKEND"


def _module_exists(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):  # pragma: no cover - broken installs
        return False


HAVE_NUMBA = _module_exists("numba")


@dataclass(frozen=True)
class KernelBackendSpec:
    """One registered kernel backend.

    ``requires`` names the dependency reported by the fallback warning;
    ``fallback`` is the backend tried next when this one is unavailable
    (``None`` means the backend must always be available).
    """

    name: str
    probe: Callable[[], bool]
    requires: str | None = None
    fallback: str | None = None

    @property
    def available(self) -> bool:
        return bool(self.probe())


_REGISTRY: dict[str, KernelBackendSpec] = {}


def register_kernel_backend(spec: KernelBackendSpec) -> None:
    """Register (or replace) a kernel backend. The registry preserves
    insertion order, which is the order CLI choices and docs list."""
    if spec.fallback is not None and spec.fallback not in _REGISTRY and spec.fallback != spec.name:
        raise ValueError(f"fallback {spec.fallback!r} of backend {spec.name!r} is not registered")
    _REGISTRY[spec.name] = spec


register_kernel_backend(KernelBackendSpec("numpy", probe=lambda: True))
register_kernel_backend(
    KernelBackendSpec("numba", probe=lambda: HAVE_NUMBA, requires="numba", fallback="numpy")
)


def kernel_backend_names() -> tuple[str, ...]:
    """All registered backend names (the whitelist config/CLI validate against)."""
    return tuple(_REGISTRY)


def kernel_backend_spec(name: str) -> KernelBackendSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def available_kernel_backends() -> tuple[str, ...]:
    """Names of the backends whose availability probe passes right now."""
    return tuple(name for name, spec in _REGISTRY.items() if spec.available)


_WARNED_FALLBACKS: set[tuple[str, str]] = set()


def _reset_fallback_warnings() -> None:
    """Test hook: forget which fallbacks have already warned."""
    _WARNED_FALLBACKS.clear()


def resolve_kernel_backend(name: str, env: os._Environ | dict | None = None) -> str:
    """Resolve a configured backend name to an available one.

    ``REPRO_KERNEL_BACKEND`` (when set and non-empty) overrides ``name``;
    an unavailable backend degrades along its fallback chain, warning once
    per (requested, fallback) pair with the missing dependency named.
    """
    env = os.environ if env is None else env
    override = env.get(ENV_VAR, "").strip()
    if override:
        if override not in _REGISTRY:
            raise ValueError(f"{ENV_VAR}: unknown kernel backend {override!r}; "
                             f"registered: {', '.join(_REGISTRY)}")
        name = override
    spec = kernel_backend_spec(name)
    requested = spec
    while not spec.available:
        if spec.fallback is None:  # pragma: no cover - numpy probe is constant True
            raise RuntimeError(f"kernel backend {spec.name!r} unavailable and has no fallback")
        next_spec = kernel_backend_spec(spec.fallback)
        key = (requested.name, next_spec.name)
        if key not in _WARNED_FALLBACKS:
            _WARNED_FALLBACKS.add(key)
            warnings.warn(
                f"kernel backend {requested.name!r} is unavailable "
                f"({spec.requires or spec.name} is not installed); falling back to {next_spec.name!r}",
                RuntimeWarning,
                stacklevel=2,
            )
        spec = next_spec
    return spec.name
