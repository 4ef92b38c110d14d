"""Configuration for balanced k-means.

Defaults follow the paper: epsilon = 3 % (§5.2.5), influence change capped at
5 % per balance step (§4.2), Hamerly bounds and bounding-box pruning on
(§4.3-4.4), sampled initialisation starting from 100 points per process
(§4.5), SFC seeding (Algorithm 2).  Each of the paper's optimisations has an
off-switch so the ablation benchmarks can isolate its effect.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from repro.core.xp import kernel_backend_names
from repro.sfc.curves import CURVE_NAMES

__all__ = ["BalancedKMeansConfig"]


@dataclass(frozen=True)
class BalancedKMeansConfig:
    """Tuning parameters of Algorithms 1 and 2.

    Attributes
    ----------
    epsilon:
        Balance tolerance; the assign-and-balance loop stops early once the
        weighted imbalance drops below it.
    max_iterations:
        Maximum center-movement rounds (Algorithm 2's ``maxIter``).
    max_balance_iterations:
        Maximum influence-adaptation rounds per assignment phase
        (Algorithm 1's ``maxBalanceIter``).
    influence_change_cap:
        Per-step multiplicative cap on influence updates ("restrict the
        maximum influence change in one step to 5 %").
    delta_threshold_rel:
        Convergence threshold for the maximum center movement, relative to
        the bounding-box diagonal.
    use_bounds / use_box_pruning / use_erosion / use_sampling:
        Toggles for the geometric optimisations (§4.3-4.5).  Bounds and box
        pruning are exact: with integer-valued weights (including the
        default unit weights) disabling either changes no result, only
        speed.  Erosion and sampling alter the center trajectory, so
        disabling them changes results.  The incremental sweep engine
        (:mod:`repro.core.kernels`) has no switch of its own:
        ``use_bounds=False`` turns it off together with the bounds, and the
        block weights are then recomputed with a full ``bincount`` every
        balance iteration instead of maintained from per-sweep assignment
        deltas.  Its block filter and candidate-local relaxations also need
        the static SFC blocks (``use_box_pruning`` and ``k > 2``).  With
        non-integer weights the delta sums associate differently from that
        ``bincount`` (and from each other when pruning changes the sweep's
        chunks), so ``imbalance`` can differ in the last ulp; this is
        deterministic and backend-identical but may steer the influence
        trajectory to an equally valid partition.
    seeding:
        ``"sfc"`` (paper default), ``"random"``, or ``"kmeans++"``.
    chunk_size:
        Points per chunk in the vectorised assignment kernel; bounds the
        ``chunk x k`` distance matrix.  Doubles as the static SFC block size
        for the cached pruning boxes.  The default keeps the two
        ``chunk x k`` scratch matrices L2-resident for typical ``k`` (the
        elementwise passes of the squared-space kernel are memory-bound;
        2048 x 64 doubles = 1 MiB per buffer) while giving the §4.4 rule
        tight boxes — measured ~2x faster end-to-end than 8192 on the
        ``n=200k, k=64`` trajectory workload.
    incremental_block_size:
        Granularity (points) of the incremental engine's bound aggregates.
        Finer sub-blocks certify more aggressively — a sub-block is skipped
        only when *every* point in it is certified, so the probability
        decays with size — at the cost of a longer aggregate vector.
        Clipped to ``chunk_size`` (aggregates never span static blocks).
    kernel_backend:
        Kernel backend for the assignment sweep, validated against the
        registry in :mod:`repro.core.xp`: ``"numpy"`` (default, vectorised
        squared-space kernel) or ``"numba"`` (fused JIT loop avoiding the
        dense ``chunk x k`` matrix).  Both run the same host sweep, bounds
        and incremental engine.  Without numba installed, ``"numba"`` falls
        back to ``"numpy"`` with a one-time warning naming the missing
        dependency, so either name is safe to request; the
        ``REPRO_KERNEL_BACKEND`` environment variable overrides this field.
        The numba kernel's dot-product accumulation order differs from the
        host GEMM, so its bounds can differ in the last ulp and an
        assignment can flip at an exact floating-point near-tie; away from
        ties the partitions agree.
    influence_floor / influence_ceil:
        Hard guards against degenerate influence values on pathological
        inputs.
    """

    epsilon: float = 0.03
    max_iterations: int = 50
    max_balance_iterations: int = 20
    influence_change_cap: float = 0.05
    delta_threshold_rel: float = 2e-4
    use_bounds: bool = True
    use_box_pruning: bool = True
    use_erosion: bool = True
    use_sampling: bool = True
    initial_sample_size: int = 100
    seeding: str = "sfc"
    sfc_curve: str = "hilbert"
    sfc_bits: int | None = None
    chunk_size: int = 2048
    incremental_block_size: int = 256
    kernel_backend: str = "numpy"
    influence_floor: float = 1e-9
    influence_ceil: float = 1e9

    def __post_init__(self) -> None:
        # written as "not (valid)" so NaN, which fails every comparison, is rejected
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.max_iterations < 1 or self.max_balance_iterations < 1:
            raise ValueError(
                "max_iterations and max_balance_iterations must be >= 1, got "
                f"{self.max_iterations} and {self.max_balance_iterations}"
            )
        if not (0.0 < self.influence_change_cap < 1.0):
            raise ValueError(f"influence_change_cap must be in (0, 1), got {self.influence_change_cap}")
        if not self.delta_threshold_rel > 0:
            raise ValueError(f"delta_threshold_rel must be positive, got {self.delta_threshold_rel}")
        if self.seeding not in ("sfc", "random", "kmeans++"):
            raise ValueError(f"unknown seeding {self.seeding!r}")
        if self.sfc_curve not in CURVE_NAMES:
            raise ValueError(f"unknown sfc_curve {self.sfc_curve!r}; choose from {', '.join(CURVE_NAMES)}")
        if self.sfc_bits is not None and self.sfc_bits < 1:
            raise ValueError(f"sfc_bits must be >= 1 or None, got {self.sfc_bits}")
        if self.initial_sample_size < 1:
            raise ValueError("initial_sample_size must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.incremental_block_size < 1:
            raise ValueError("incremental_block_size must be >= 1")
        if self.kernel_backend not in kernel_backend_names():
            raise ValueError(
                f"unknown kernel_backend {self.kernel_backend!r}; "
                f"registered: {', '.join(kernel_backend_names())}"
            )
        if not (0 < self.influence_floor < 1 < self.influence_ceil):
            raise ValueError("need influence_floor < 1 < influence_ceil")

    def with_(self, **kwargs) -> "BalancedKMeansConfig":
        """Functional update (configs are frozen)."""
        return replace(self, **kwargs)

    def digest(self) -> str:
        """Short stable hash over every field value.

        Stored in checkpoint metadata and re-validated on resume: two runs
        with different configurations take different influence/assignment
        trajectories, so resuming under the wrong configuration must fail
        loudly instead of silently producing a hybrid result.
        """
        text = ",".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return hashlib.sha256(text.encode()).hexdigest()[:16]
