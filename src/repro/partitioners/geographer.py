"""Geographer: SFC bootstrap + balanced k-means (the paper's partitioner).

Thin partitioner-interface wrapper around :func:`repro.core.balanced_kmeans`;
labelled ``Geographer`` (called ``geoKmeans`` in Figure 2's legend).  The only
partitioner with ``supports_warm_start``: :meth:`repartition` seeds the new
run from the previous centers, skipping the SFC bootstrap and the sampled
initialisation rounds — the incremental path adaptive simulations rely on.
"""

from __future__ import annotations

from repro.core.balanced_kmeans import balanced_kmeans
from repro.core.config import BalancedKMeansConfig
from repro.core.result import KMeansResult
from repro.partitioners.base import GeometricPartitioner, RawPartition, register_partitioner

__all__ = ["GeographerPartitioner"]


@register_partitioner
class GeographerPartitioner(GeometricPartitioner):
    """Balanced k-means partitioner.

    Parameters
    ----------
    config:
        Optional :class:`BalancedKMeansConfig`; the epsilon passed to
        :meth:`partition` overrides the config's epsilon.
    """

    name = "Geographer"
    supports_warm_start = True

    def __init__(
        self,
        config: BalancedKMeansConfig | None = None,
        workspace=None,
        sfc_order=None,
    ) -> None:
        self.config = config or BalancedKMeansConfig()
        self.last_result: KMeansResult | None = None
        # warm-run state for long-lived callers (the service layer): a
        # SweepWorkspace + precomputed SFC order are forwarded to every
        # balanced_kmeans call.  Results are bit-identical with or without
        # them; the workspace is validated against each call's problem.
        self.workspace = workspace
        self.sfc_order = sfc_order

    def _config_for(self, epsilon: float) -> BalancedKMeansConfig:
        return self.config if self.config.epsilon == epsilon else self.config.with_(epsilon=epsilon)

    def _wrap(self, result: KMeansResult) -> RawPartition:
        self.last_result = result
        return RawPartition(
            assignment=result.assignment,
            centers=result.centers,
            iterations=result.iterations,
            converged=result.converged,
            timers=result.timers,
        )

    def _partition(self, points, k, weights, epsilon, rng, targets):
        result = balanced_kmeans(points, k, weights=weights, config=self._config_for(epsilon),
                                 rng=rng, target_weights=targets,
                                 workspace=self.workspace, sfc_order=self.sfc_order)
        return self._wrap(result)

    def _repartition(self, points, k, weights, epsilon, rng, targets, centers):
        # warm start: previous centers replace seeding and skip the sampled
        # initialisation, which is pointless when centers are near-optimal
        result = balanced_kmeans(points, k, weights=weights, config=self._config_for(epsilon), rng=rng,
                                 target_weights=targets, centers=centers,
                                 workspace=self.workspace, sfc_order=self.sfc_order)
        return self._wrap(result)
