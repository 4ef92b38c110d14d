"""Partitioning as a service: a long-lived server over the warm-start stack.

The paper's headline use case is *repartitioning* — a simulation whose load
shifts every few timesteps and re-balances warm-started from the previous
partition.  This package composes the library's warm-start
``repartition()``, shared-memory ``SharedArray`` and checkpoint/resume into
a serving layer:

- :class:`~repro.service.server.PartitionService` — the in-process core:
  datasets registered once into server-owned shared-memory segments,
  sessions whose ``repartition`` calls warm-start from the previous centers
  on one warm :class:`~repro.core.kernels.SweepWorkspace`, single-flight
  request coalescing + per-dataset batching, an LRU result cache, and
  per-session :class:`~repro.runtime.checkpoint.CheckpointStore` snapshots
  a restarted server resumes bit-identically from.
- :class:`~repro.service.server.PartitionServer` — the asyncio socket
  front-end (length-prefixed pickles over a unix socket).
- :class:`~repro.service.client.ServiceClient` — the blocking client, with
  bounded reply waits, a safe-retry policy, and automatic reconnect.
- :mod:`~repro.service.resilience` — the SLO layer: per-request deadlines,
  admission control with immediate load shedding, per-dataset circuit
  breakers, a supervisor that detects crashed/hung compute (and executes
  ``REPRO_FAULTS`` plans against it), and the client
  :class:`~repro.service.resilience.RetryPolicy`.
- :func:`~repro.service.loadtest.run_load_test` — the p50/p99/throughput
  harness behind ``repro bench-service``.

Every result the service returns is bit-identical to a direct
``partitioner.partition()`` / ``repartition()`` call — caching, batching and
warm workspaces only change *when* work happens, never what it computes.
Retries are equally safe: nothing commits until a compute succeeds, so a
retried request replays (cache, session ``request_id``) or recomputes the
exact same step.
"""

from repro.service.cache import LRUResultCache
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.loadtest import run_load_test
from repro.service.resilience import (
    AdmissionController,
    BreakerOpen,
    CircuitBreaker,
    ComputeFailed,
    ComputeSupervisor,
    ComputeTimeout,
    DeadlineExceeded,
    RetryPolicy,
    ServiceFailure,
    ServiceOverloaded,
    ShuttingDown,
)
from repro.service.server import PartitionServer, PartitionService, ServiceError

__all__ = [
    "AdmissionController",
    "BreakerOpen",
    "CircuitBreaker",
    "ComputeFailed",
    "ComputeSupervisor",
    "ComputeTimeout",
    "DeadlineExceeded",
    "LRUResultCache",
    "PartitionServer",
    "PartitionService",
    "RetryPolicy",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "ServiceFailure",
    "ServiceOverloaded",
    "ShuttingDown",
    "run_load_test",
]
