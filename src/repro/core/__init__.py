"""Balanced k-means — the paper's core contribution (§4).

Public entry point: :func:`balanced_kmeans` (Algorithm 2), configured via
:class:`BalancedKMeansConfig`.  It runs the one Algorithm 1/2 loop,
:func:`repro.runtime.distributed_kmeans._kmeans_loop`, on a single virtual
rank.  The loop's building blocks live here: the vectorised assignment
sweep and per-rank reductions in :mod:`repro.core.assign`, the sweep
workspace and kernel backends in :mod:`repro.core.kernels`, influence
adaptation and erosion (Eq. 1-3) in :mod:`repro.core.influence`, the
Hamerly-style bound maintenance (Eq. 4-5) in :mod:`repro.core.bounds`, and
seeding and the sampled-round schedule in :mod:`repro.core.seeding` and
:mod:`repro.core.sampling`.
"""

from repro.core.config import BalancedKMeansConfig
from repro.core.kernels import SweepWorkspace, resolve_backend
from repro.core.result import IterationStats, KMeansResult
from repro.core.balanced_kmeans import balanced_kmeans
from repro.core.seeding import kmeanspp_seeding, random_seeding, sfc_seeding
from repro.core.xp import available_kernel_backends, kernel_backend_names

__all__ = [
    "BalancedKMeansConfig",
    "SweepWorkspace",
    "resolve_backend",
    "kernel_backend_names",
    "available_kernel_backends",
    "KMeansResult",
    "IterationStats",
    "balanced_kmeans",
    "sfc_seeding",
    "random_seeding",
    "kmeanspp_seeding",
]
