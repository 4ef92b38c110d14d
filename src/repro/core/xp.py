"""Compatibility shim: the sweep has one kernel, numpy.

The repo benchmark (``benchmarks/e2e/run.py``) imports
:func:`available_kernel_backends` for each run's environment block, so the
name stays until the benchmark change of ROADMAP item 4 drops that field and
deletes this module.
"""

from __future__ import annotations

__all__ = ["available_kernel_backends"]


def available_kernel_backends() -> tuple[str, ...]:
    """The sweep's kernel backends: always ``("numpy",)``."""
    return ("numpy",)
