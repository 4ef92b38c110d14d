"""The partitioning service core and its asyncio socket front-end.

:class:`PartitionService` is the in-process heart — an asyncio object whose
coroutines implement the whole feature set (datasets in shared memory, warm
sessions, coalescing/batching, the LRU cache, per-session checkpoints,
graceful drain).  :class:`PartitionServer` is a thin transport: it exposes
those coroutines over length-prefixed pickle frames on a unix socket
(:mod:`repro.service.protocol`) so many client processes can share one warm
server.  Keeping the core transport-free makes every behaviour testable
without sockets.

Request lifecycle (the SLO-aware path added by the resilience layer,
:mod:`repro.service.resilience`)::

    deadline_ms -> admission control -> circuit breaker -> supervised compute
        -> commit (atomic) -> checkpoint -> reply

Requests carrying ``deadline_ms`` are cancelled at the deadline; state only
commits *after* a compute succeeds, so a deadline-cancelled or crashed
request leaves sessions exactly at their checkpointed step and a retry is
bit-identical.  Admission sheds over-limit requests immediately with a
structured ``overloaded`` error; per-dataset breakers fail fast after
consecutive compute failures; the :class:`ComputeSupervisor` detects hung
compute, abandons it, and replaces the executor (a *respawn*), with an
optional :class:`~repro.runtime.faults.FaultPlan` deterministically killing
or stalling scheduled requests for chaos tests.

Determinism contract: every result is **bit-identical** to calling
``GeographerPartitioner().partition(...)`` / ``.repartition(...)`` directly
with the same inputs.  Warm workspaces only skip redundant cache builds
(never change sweep results — the PR-2/4 property), the result cache keys on
every determinism-relevant input, coalescing shares one computation between
identical requests, and session step ``i`` always runs with
``rng = seed + i`` so a resumed server replays the exact rng sequence.
Retried requests are idempotent: one-shot results come from the digest LRU,
and session steps replay by ``request_id`` instead of recomputing.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import uuid
from dataclasses import dataclass, field

import numpy as np

from repro.core.balanced_kmeans import compute_sfc_order
from repro.core.config import BalancedKMeansConfig
from repro.core.kernels import SweepWorkspace
from repro.partitioners.geographer import GeographerPartitioner
from repro.partitioners.result import PartitionResult
from repro.runtime.checkpoint import CheckpointStore, data_digest, validate_meta
from repro.runtime.comm import CostLedger
from repro.runtime.faults import FaultPlan
from repro.runtime.procomm import share_array, share_array_from_rows, unlink_array
from repro.service.cache import LRUResultCache, weights_hash
from repro.service.protocol import ProtocolError, read_frame, write_frame
from repro.service.resilience import (
    AdmissionController,
    CircuitBreaker,
    ComputeFailed,
    ComputeSupervisor,
    ComputeTimeout,
    DeadlineExceeded,
    ServiceError,
    ShuttingDown,
    error_payload,
    service_compute_timeout,
)

__all__ = ["PartitionServer", "PartitionService", "ServiceError", "SESSION_CHECKPOINT_KIND"]

#: ``kind`` tag of per-session checkpoints (rejects resuming foreign files).
SESSION_CHECKPOINT_KIND = "service-session"


@dataclass
class _Dataset:
    dataset_id: str
    points: np.ndarray  # SharedArray view over a server-owned segment
    weights: np.ndarray | None  # ditto, or None for unit weights
    digest: str
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    sfc_order: np.ndarray | None = None
    workspaces: dict[int, SweepWorkspace] = field(default_factory=dict)


@dataclass
class _Session:
    session_id: str
    dataset_id: str
    k: int
    epsilon: float
    seed: int
    step: int = 0
    previous: PartitionResult | None = None
    # session-private geometry (None -> the dataset's shared points) and the
    # session's current weights (None -> the dataset's registered weights)
    points: np.ndarray | None = None
    weights: np.ndarray | None = None
    sfc_order: np.ndarray | None = None
    workspace: SweepWorkspace | None = None
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    store: CheckpointStore | None = None
    # idempotency: the last committed (request_id, result) pair, so a client
    # retry of an already-applied step replays instead of recomputing
    last_request: tuple[str, PartitionResult] | None = None


class PartitionService:
    """Long-lived partitioning core: warm state + caching over Geographer.

    Parameters
    ----------
    config:
        The :class:`BalancedKMeansConfig` every request runs under (the
        per-request ``epsilon`` overrides the config's, exactly like
        :class:`GeographerPartitioner`); also selects the kernel backend
        the warm workspaces are built for.
    checkpoint_dir:
        Root directory for per-session checkpoints — each session writes
        into its own ``run_id`` namespace (the concurrency-safe layout of
        :class:`CheckpointStore`).  On construction, existing session
        checkpoints under this root are loaded and their sessions (and
        backing datasets) rebuilt, which is how a SIGKILLed server resumes.
        ``None`` disables checkpointing.
    cache_capacity:
        LRU result-cache entries (0 disables caching).
    compute_threads:
        Executor threads for the numeric work.  The default 1 serialises
        all sweeps (per-dataset locks already serialise same-dataset work);
        raise it to overlap distinct datasets.
    max_inflight / max_queue:
        Admission-control bounds: at most ``max_inflight`` compute requests
        run concurrently and at most ``max_queue`` wait behind them; the
        rest are shed immediately with ``overloaded`` + ``retry_after_ms``.
        ``None`` disables the respective bound.
    compute_timeout:
        Supervisor hang limit (seconds) per compute; default comes from
        ``REPRO_SERVICE_COMPUTE_TIMEOUT`` (unset = no watchdog).
    breaker_threshold / breaker_reset:
        Per-dataset circuit breaker: open after ``breaker_threshold``
        consecutive compute failures, half-open probe after
        ``breaker_reset`` seconds.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` executed against
        the compute path (and checkpoint saves) for chaos testing.
    """

    def __init__(
        self,
        config: BalancedKMeansConfig | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
        cache_capacity: int = 128,
        compute_threads: int = 1,
        max_inflight: int | None = None,
        max_queue: int | None = 256,
        compute_timeout: float | None = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 5.0,
        faults: FaultPlan | None = None,
    ) -> None:
        self.config = config or BalancedKMeansConfig()
        self.checkpoint_dir = os.fspath(checkpoint_dir) if checkpoint_dir is not None else None
        self.ledger = CostLedger()
        self.cache = LRUResultCache(cache_capacity, ledger=self.ledger)
        self.faults = faults
        self._datasets: dict[str, _Dataset] = {}
        self._sessions: dict[str, _Session] = {}
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._supervisor = ComputeSupervisor(
            threads=compute_threads,
            timeout=compute_timeout if compute_timeout is not None
            else service_compute_timeout(),
            faults=faults,
            ledger=self.ledger,
        )
        self._admission = AdmissionController(
            max_inflight=max_inflight,
            max_queue=max_queue,
            ledger=self.ledger,
            retry_hint=self._supervisor.retry_after_ms,
        )
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_reset = float(breaker_reset)
        self._breakers: dict[str, CircuitBreaker] = {}
        self._closed = False
        if self.checkpoint_dir is not None:
            self._resume_sessions()

    def _breaker(self, dataset_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(dataset_id)
        if breaker is None:
            breaker = CircuitBreaker(
                dataset_id,
                threshold=self._breaker_threshold,
                reset_seconds=self._breaker_reset,
                ledger=self.ledger,
            )
            self._breakers[dataset_id] = breaker
        return breaker

    # -- datasets ------------------------------------------------------------

    async def register_dataset(
        self,
        points: np.ndarray,
        weights: np.ndarray | None = None,
        dataset_id: str | None = None,
    ) -> dict:
        """Copy ``points``/``weights`` into server-owned shared segments.

        Idempotent: re-registering identical data under the same id (or the
        digest-derived default id) returns the existing registration, so
        clients may blindly register on connect.  Returns
        ``{"dataset_id", "digest", "n", "dim"}``.
        """
        self._ensure_open()
        return self._register_dataset_sync(points, weights, dataset_id)

    def _register_dataset_sync(self, points, weights, dataset_id=None) -> dict:
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise ServiceError(f"points must be (n, 2|3), got shape {pts.shape}")
        w = None
        if weights is not None:
            w = np.ascontiguousarray(weights, dtype=np.float64)
            if w.shape != (pts.shape[0],):
                raise ServiceError(f"weights shape {w.shape} does not match {pts.shape[0]} points")
        digest = data_digest(pts, *( [w] if w is not None else [] ))
        if dataset_id is None:
            dataset_id = f"ds-{digest[:12]}"
        existing = self._datasets.get(dataset_id)
        if existing is not None:
            if existing.digest != digest:
                raise ServiceError(
                    f"dataset id {dataset_id!r} is already registered with different data"
                )
            self.ledger.count("dataset_rehits")
            return self._dataset_info(existing)
        ds = _Dataset(
            dataset_id=dataset_id,
            points=share_array(pts),
            weights=share_array(w) if w is not None else None,
            digest=digest,
        )
        self._datasets[dataset_id] = ds
        self.ledger.count("datasets_registered")
        return self._dataset_info(ds)

    async def register_manifest(
        self,
        manifest: str,
        dataset_id: str | None = None,
    ) -> dict:
        """Register a sharded on-disk dataset without shipping its bytes.

        The client sends only the manifest path (server-visible filesystem);
        the server streams the shards into its shared segments one shard at
        a time, so registration peaks at O(shard) extra memory regardless of
        dataset size.  Idempotent like :meth:`register_dataset`; the digest
        is the manifest digest (prefixed ``sharded:``), so re-registering
        the same directory under the same id is a rehit.
        """
        self._ensure_open()
        return self._register_manifest_sync(manifest, dataset_id)

    def _register_manifest_sync(self, manifest, dataset_id=None) -> dict:
        from repro.io.sharded import ShardedDataset

        try:
            src = ShardedDataset(manifest)
        except (OSError, ValueError) as exc:
            raise ServiceError(f"cannot open sharded dataset {manifest!r}: {exc}")
        if src.dim not in (2, 3):
            raise ServiceError(f"points must be (n, 2|3), got dim={src.dim}")
        digest = f"sharded:{src.digest}"
        if dataset_id is None:
            dataset_id = f"ds-{src.digest[:12]}"
        existing = self._datasets.get(dataset_id)
        if existing is not None:
            if existing.digest != digest:
                raise ServiceError(
                    f"dataset id {dataset_id!r} is already registered with different data"
                )
            self.ledger.count("dataset_rehits")
            return self._dataset_info(existing)
        points = share_array_from_rows(
            (tile for _, tile, _, _ in src.iter_tiles()), (src.n, src.dim), np.float64
        )
        weights = None
        if src.has_weights:
            try:
                weights = share_array_from_rows(
                    (w for _, _, w, _ in src.iter_tiles()), (src.n,), np.float64
                )
            except Exception:
                unlink_array(points)
                raise
        ds = _Dataset(
            dataset_id=dataset_id,
            points=points,
            weights=weights,
            digest=digest,
        )
        self._datasets[dataset_id] = ds
        self.ledger.count("datasets_registered")
        return self._dataset_info(ds)

    @staticmethod
    def _dataset_info(ds: _Dataset) -> dict:
        return {
            "dataset_id": ds.dataset_id,
            "digest": ds.digest,
            "n": int(ds.points.shape[0]),
            "dim": int(ds.points.shape[1]),
        }

    def _dataset(self, dataset_id: str) -> _Dataset:
        ds = self._datasets.get(dataset_id)
        if ds is None:
            raise ServiceError(f"unknown dataset {dataset_id!r}; register it first")
        return ds

    def _warm_state(
        self, points: np.ndarray, k: int, sfc_order: np.ndarray | None,
        workspace: SweepWorkspace | None,
    ) -> tuple[np.ndarray, SweepWorkspace | None]:
        """(Re)build the (sfc_order, workspace) pair for one point set + k."""
        cfg = self.config
        order = compute_sfc_order(points, cfg) if sfc_order is None else sfc_order
        if int(k) == 1:
            return order, None  # k == 1 short-circuits before any sweep
        work = points[order]
        if workspace is None or not workspace.matches(work, cfg, k):
            workspace = SweepWorkspace(np.ascontiguousarray(work), cfg, int(k))
            self.ledger.count("workspaces_built")
        return order, workspace

    # -- one-shot partitioning (coalesced + batched + cached) ----------------

    async def partition(
        self,
        dataset_id: str,
        k: int,
        epsilon: float = 0.03,
        seed: int = 0,
        weights: np.ndarray | None = None,
    ) -> PartitionResult:
        """One-shot ``Geographer.partition`` over a registered dataset.

        ``weights`` overrides the dataset's registered weights for this
        request only.  Concurrent identical requests coalesce onto a single
        computation (single-flight); concurrent distinct requests against
        one dataset queue on the dataset lock and run back-to-back on its
        warm workspace (one fused pass per queue drain, counted under
        ``batched_requests``).  Results are cached in the LRU keyed on
        ``(data_digest, k, epsilon, weights_hash, seed)``.

        Cache hits and coalesced joins bypass admission control (they cost
        no compute); everything else takes a compute slot, passes the
        dataset's circuit breaker, and runs supervised.
        """
        self._ensure_open()
        ds = self._dataset(dataset_id)
        eff_w = ds.weights if weights is None else np.ascontiguousarray(weights, dtype=np.float64)
        key = (ds.digest, int(k), float(epsilon), weights_hash(eff_w), int(seed))
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        pending = self._inflight.get(key)
        if pending is not None:
            self.ledger.count("coalesced_requests")
            return await asyncio.shield(pending)
        breaker = self._breaker(ds.dataset_id)
        breaker.allow()
        future = asyncio.get_running_loop().create_future()
        # a lone failed request must not warn about an unretrieved exception
        future.add_done_callback(lambda f: f.cancelled() or f.exception())
        self._inflight[key] = future
        try:
            async with self._admission.slot():
                if ds.lock.locked():
                    self.ledger.count("batched_requests")
                async with ds.lock:
                    order, ws = self._warm_state(
                        ds.points, k, ds.sfc_order, ds.workspaces.get(int(k))
                    )
                    ds.sfc_order = order
                    if ws is not None:
                        ds.workspaces[int(k)] = ws
                    try:
                        result = await self._supervisor.run(
                            lambda: GeographerPartitioner(
                                config=self.config, workspace=ws, sfc_order=order
                            ).partition(ds.points, int(k), eff_w, epsilon, rng=int(seed)),
                            label=f"partition:{ds.dataset_id}",
                        )
                    except (ComputeFailed, ComputeTimeout):
                        # the abandoned/crashed compute may have left the warm
                        # workspace mid-mutation; rebuild it next request
                        ds.workspaces.pop(int(k), None)
                        breaker.record_failure()
                        raise
                    except asyncio.CancelledError:
                        ds.workspaces.pop(int(k), None)
                        raise
            breaker.record_success()
            self.cache.put(key, result)
            self.ledger.count("requests_served")
            future.set_result(result)
            return result
        except BaseException as exc:
            future.set_exception(exc)
            raise
        finally:
            self._inflight.pop(key, None)

    # -- sessions ------------------------------------------------------------

    async def open_session(
        self, dataset_id: str, k: int, epsilon: float = 0.03, seed: int = 0
    ) -> dict:
        """Open a repartitioning session over a registered dataset.

        The first :meth:`repartition` call runs cold; each later call
        warm-starts from the session's previous centers.  Step ``i`` runs
        with ``rng = seed + i``.  Returns ``{"session_id", ...}``.
        """
        self._ensure_open()
        ds = self._dataset(dataset_id)
        session_id = f"sess-{uuid.uuid4().hex[:12]}"
        sess = _Session(
            session_id=session_id,
            dataset_id=ds.dataset_id,
            k=int(k),
            epsilon=float(epsilon),
            seed=int(seed),
            store=self._session_store(session_id),
        )
        self._sessions[session_id] = sess
        self.ledger.count("sessions_opened")
        return {"session_id": session_id, "dataset_id": ds.dataset_id, "k": sess.k,
                "epsilon": sess.epsilon, "seed": sess.seed, "step": sess.step}

    def _session_store(self, session_id: str) -> CheckpointStore | None:
        if self.checkpoint_dir is None:
            return None
        return CheckpointStore(self.checkpoint_dir, run_id=session_id, keep=2)

    def _session(self, session_id: str) -> _Session:
        sess = self._sessions.get(session_id)
        if sess is None:
            raise ServiceError(f"unknown session {session_id!r}")
        return sess

    async def repartition(
        self,
        session_id: str,
        weights: np.ndarray | None = None,
        weight_delta: np.ndarray | None = None,
        points: np.ndarray | None = None,
        request_id: str | None = None,
    ) -> PartitionResult:
        """Advance a session one step, warm-started from its previous centers.

        Deltas stream in three forms: ``weights`` replaces the session's
        per-point loads wholesale, ``weight_delta`` adds to the current
        effective loads, and ``points`` replaces the geometry (the adaptive
        refinement case — the session's warm workspace is rebuilt, centers
        still carry over).  With no arguments the step re-runs on unchanged
        inputs.  Step ``i`` uses ``rng = seed + i``; results are
        bit-identical to direct ``GeographerPartitioner`` calls with the
        same inputs, and each step is checkpointed so a restarted server
        continues the sequence bit-identically.

        Nothing commits until the supervised compute succeeds — a crashed,
        hung or deadline-cancelled step leaves the session untouched, so a
        retry recomputes the *same* step bit-identically.  ``request_id``
        makes retries idempotent even across the commit boundary: if the
        session's last committed step carries the same id, the stored
        result replays instead of recomputing (so a retry after a lost
        reply never double-applies a delta).
        """
        self._ensure_open()
        sess = self._session(session_id)
        if (
            request_id is not None
            and sess.last_request is not None
            and sess.last_request[0] == request_id
        ):
            self.ledger.count("idempotent_replays")
            return sess.last_request[1]
        breaker = self._breaker(sess.dataset_id)
        breaker.allow()
        async with self._admission.slot():
            async with sess.lock:
                # the original attempt may have committed while this retry
                # queued on the session lock
                if (
                    request_id is not None
                    and sess.last_request is not None
                    and sess.last_request[0] == request_id
                ):
                    self.ledger.count("idempotent_replays")
                    return sess.last_request[1]
                ds = self._dataset(sess.dataset_id)
                # stage every input mutation; commit only after compute succeeds
                staged_points = None
                if points is not None:
                    pts = np.ascontiguousarray(points, dtype=np.float64)
                    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
                        raise ServiceError(f"points must be (n, 2|3), got shape {pts.shape}")
                    staged_points = share_array(pts)
                try:
                    eff_pts = staged_points if staged_points is not None else (
                        sess.points if sess.points is not None else ds.points
                    )
                    n = eff_pts.shape[0]
                    staged_weights = sess.weights
                    weights_changed = False
                    if weights is not None:
                        w = np.ascontiguousarray(weights, dtype=np.float64)
                        if w.shape != (n,):
                            raise ServiceError(
                                f"weights shape {w.shape} does not match {n} points"
                            )
                        staged_weights, weights_changed = w, True
                    elif weight_delta is not None:
                        delta = np.ascontiguousarray(weight_delta, dtype=np.float64)
                        if delta.shape != (n,):
                            raise ServiceError(
                                f"weight_delta shape {delta.shape} does not match {n} points"
                            )
                        base = sess.weights
                        if base is None:
                            base = ds.weights if (
                                ds.weights is not None and ds.weights.shape == (n,)
                            ) else np.ones(n)
                        staged_weights, weights_changed = base + delta, True
                    eff_w = staged_weights
                    if eff_w is None and ds.weights is not None and ds.weights.shape == (n,):
                        eff_w = ds.weights

                    if staged_points is not None:
                        order, ws = self._warm_state(eff_pts, sess.k, None, None)
                    else:
                        order, ws = self._warm_state(
                            eff_pts, sess.k, sess.sfc_order, sess.workspace
                        )
                    rng = sess.seed + sess.step
                    previous = sess.previous

                    def compute():
                        partitioner = GeographerPartitioner(
                            config=self.config, workspace=ws, sfc_order=order
                        )
                        if previous is not None:
                            return partitioner.repartition(
                                previous, eff_pts, sess.k, eff_w, sess.epsilon, rng=rng
                            )
                        return partitioner.partition(eff_pts, sess.k, eff_w, sess.epsilon, rng=rng)

                    try:
                        result = await self._supervisor.run(
                            compute, label=f"repartition:{sess.session_id}"
                        )
                    except (ComputeFailed, ComputeTimeout):
                        breaker.record_failure()
                        self._restore_session(sess)
                        raise
                    except asyncio.CancelledError:
                        # the orphaned thread may still be sweeping on the
                        # session workspace; drop it so the retry rebuilds
                        sess.workspace = None
                        raise
                except BaseException:
                    if staged_points is not None:
                        unlink_array(staged_points)
                    raise

                # -- commit (no awaits: atomic wrt cancellation) -------------
                if staged_points is not None:
                    if sess.points is not None:
                        unlink_array(sess.points)
                    sess.points = staged_points
                if weights_changed:
                    sess.weights = staged_weights
                sess.sfc_order, sess.workspace = order, ws
                breaker.record_success()
                sess.previous = result
                sess.step += 1
                if request_id is not None:
                    sess.last_request = (request_id, result)
                self.ledger.count("repartitions_served")
                if sess.store is not None:
                    self._checkpoint_session(sess, eff_pts, eff_w)
                return result

    def _checkpoint_session(self, sess: _Session, eff_pts, eff_w) -> None:
        """Snapshot everything a restarted server needs to continue the session."""
        result = sess.previous
        arrays = {
            "points": np.asarray(eff_pts),
            "assignment": np.asarray(result.assignment),
            "centers": np.asarray(result.centers),
            "block_weights": np.asarray(result.block_weights),
            "target_weights": np.asarray(result.target_weights),
        }
        if eff_w is not None:
            arrays["weights"] = np.asarray(eff_w)
        meta = {
            "kind": SESSION_CHECKPOINT_KIND,
            "session_id": sess.session_id,
            "dataset_id": sess.dataset_id,
            "config_digest": self.config.digest(),
            "k": sess.k,
            "epsilon": sess.epsilon,
            "seed": sess.seed,
            "step": sess.step,
            "imbalance": float(result.imbalance),
            "private_points": sess.points is not None,
        }
        sess.store.save(arrays, meta, faults=self.faults)
        self.ledger.count("checkpoints_saved")

    def _result_from_snapshot(self, arrays: dict, meta: dict) -> PartitionResult:
        return PartitionResult(
            assignment=np.ascontiguousarray(arrays["assignment"], dtype=np.int64),
            k=int(meta["k"]),
            block_weights=np.asarray(arrays["block_weights"], dtype=np.float64),
            target_weights=np.asarray(arrays["target_weights"], dtype=np.float64),
            imbalance=float(meta["imbalance"]),
            epsilon=float(meta["epsilon"]),
            tool="Geographer",
            centers=np.asarray(arrays["centers"], dtype=np.float64),
        )

    def _restore_session(self, sess: _Session) -> None:
        """Re-anchor a session on its ``run_id`` checkpoint after a compute failure.

        The warm workspace is dropped unconditionally (the dead compute may
        have left it mid-mutation).  In-memory step state only mutates on
        commit, so normally it already matches the newest checkpoint — but
        if they diverge (e.g. the failure interrupted a checkpoint save),
        the checkpoint wins: previous result, weights and step are reloaded
        so the continued sequence stays bit-identical to an uninterrupted
        run.
        """
        sess.workspace = None
        sess.sfc_order = None
        if sess.store is None:
            return
        try:
            arrays, meta = sess.store.load()
            validate_meta(meta, kind=SESSION_CHECKPOINT_KIND,
                          config_digest=self.config.digest())
        except Exception:
            return  # no (valid) checkpoint yet — in-memory state is authoritative
        if meta.get("session_id") != sess.session_id:
            return
        if int(meta["step"]) != sess.step:
            sess.step = int(meta["step"])
            sess.previous = self._result_from_snapshot(arrays, meta)
            if "weights" in arrays:
                sess.weights = np.ascontiguousarray(arrays["weights"], dtype=np.float64)
            sess.last_request = None
        self.ledger.count("sessions_restored")
        self.ledger.record_event(
            "session_restored", session_id=sess.session_id, step=sess.step
        )

    def _resume_sessions(self) -> None:
        """Rebuild sessions (and their backing datasets) from checkpoints.

        Called at construction when a checkpoint root is configured.  Each
        ``run_id`` subdirectory holding a valid ``service-session``
        checkpoint becomes a live session whose next step runs with the
        exact inputs, centers and rng the killed server would have used —
        so the continued sequence is bit-identical.
        """
        root = self.checkpoint_dir
        if not os.path.isdir(root):
            return
        for name in sorted(os.listdir(root)):
            sub = os.path.join(root, name)
            if not os.path.isdir(sub):
                continue
            store = CheckpointStore(root, run_id=name, keep=2)
            try:
                arrays, meta = store.load()
                validate_meta(meta, kind=SESSION_CHECKPOINT_KIND,
                              config_digest=self.config.digest())
            except Exception:
                continue  # not a session of this service/config; leave it alone
            session_id = meta["session_id"]
            pts = np.ascontiguousarray(arrays["points"], dtype=np.float64)
            w = None
            if "weights" in arrays:
                w = np.ascontiguousarray(arrays["weights"], dtype=np.float64)
            private = bool(meta.get("private_points"))
            dataset_id = meta["dataset_id"]
            if dataset_id not in self._datasets and not private:
                self._register_dataset_sync(pts, w, dataset_id=dataset_id)
            sess = _Session(
                session_id=session_id,
                dataset_id=dataset_id,
                k=int(meta["k"]),
                epsilon=float(meta["epsilon"]),
                seed=int(meta["seed"]),
                step=int(meta["step"]),
                store=store,
            )
            if private:
                sess.points = share_array(pts)
                if dataset_id not in self._datasets:
                    # the dataset itself was not checkpointed; register the
                    # session's geometry so dataset lookups keep working
                    self._register_dataset_sync(pts, w, dataset_id=dataset_id)
            if w is not None:
                sess.weights = w
            sess.previous = self._result_from_snapshot(arrays, meta)
            self._sessions[session_id] = sess
            self.ledger.count("sessions_resumed")

    async def close_session(self, session_id: str, drop_checkpoints: bool = False) -> dict:
        """End a session, releasing its private segment (checkpoints kept)."""
        sess = self._session(session_id)
        async with sess.lock:
            del self._sessions[session_id]
            if sess.points is not None:
                unlink_array(sess.points)
                sess.points = None
            if drop_checkpoints and sess.store is not None:
                for path in sess.store.candidates():
                    path.unlink(missing_ok=True)
                try:
                    sess.store.directory.rmdir()
                except OSError:
                    pass
        self.ledger.count("sessions_closed")
        return {"session_id": session_id, "steps": sess.step}

    # -- introspection + lifecycle -------------------------------------------

    async def stats(self) -> dict:
        """Counters, cache stats and live object counts (JSON-serialisable)."""
        return {
            "datasets": len(self._datasets),
            "sessions": len(self._sessions),
            "inflight": len(self._inflight),
            "cache": self.cache.stats,
            "counters": dict(self.ledger.counters),
            "config_digest": self.config.digest(),
        }

    async def health(self) -> dict:
        """Readiness snapshot: load, breaker states, recovery counts.

        Cheap by construction (no locks, no compute) so monitors can poll it
        while the service is saturated.
        """
        c = self.ledger.counters
        return {
            "status": "draining" if self._closed else "ok",
            "queue_depth": self._admission.queued,
            "inflight": self._admission.inflight,
            "max_inflight": self._admission.max_inflight,
            "max_queue": self._admission.max_queue,
            "requests_shed": c.get("requests_shed", 0),
            "breakers": {name: br.describe() for name, br in self._breakers.items()},
            "compute_respawns": self._supervisor.respawns,
            "sessions_restored": c.get("sessions_restored", 0),
            "compute_timeout": self._supervisor.timeout,
            "avg_compute_ms": (
                None if self._supervisor.avg_compute_s is None
                else self._supervisor.avg_compute_s * 1e3
            ),
            "datasets": len(self._datasets),
            "sessions": len(self._sessions),
        }

    async def drain(self, grace: float | None = None) -> None:
        """Finish in-flight work, then release every shared segment.

        ``grace`` bounds the wait: queued (not yet admitted) requests fail
        immediately with ``shutting_down``; admitted requests get up to
        ``grace`` seconds to finish (their sessions are checkpoint-consistent
        either way — commits are atomic); whatever still runs afterwards is
        abandoned.  ``None`` waits indefinitely.  After drain the service
        rejects new requests; ``assert_no_leaks`` passes because every
        ``share_array`` segment is unlinked here.
        """
        self._closed = True
        self._admission.shed_waiters(ShuttingDown("service is draining/closed"))
        loop = asyncio.get_running_loop()
        deadline = None if grace is None else loop.time() + float(grace)
        while self._admission.inflight > 0:
            if deadline is not None and loop.time() >= deadline:
                break
            await asyncio.sleep(0.02)
        pending = [f for f in self._inflight.values() if not f.done()]
        if pending:
            waiter = asyncio.gather(*pending, return_exceptions=True)
            if deadline is None:
                await waiter
            else:
                try:
                    await asyncio.wait_for(waiter, max(0.01, deadline - loop.time()))
                except asyncio.TimeoutError:
                    pass
        drained_clean = self._admission.inflight == 0
        # abandoned (deadline/timeout) computes may still be sweeping over the
        # shared segments below; unmapping under them would segfault the
        # server.  Wait them out; if one outlives the grace, leak its
        # segments instead (the resource tracker reclaims them at exit).
        quiesce_grace = None if deadline is None else max(0.0, deadline - loop.time())
        quiesced = await loop.run_in_executor(
            None, self._supervisor.quiesce, quiesce_grace
        )
        if not quiesced:
            self.ledger.record_event("drain_leaked_segments", reason="wedged compute")
            self._sessions.clear()
            self._datasets.clear()
            self.cache.clear()
            self._supervisor.shutdown(wait=False)
            return
        for sess in self._sessions.values():
            if sess.points is not None:
                unlink_array(sess.points)
                sess.points = None
        self._sessions.clear()
        for ds in self._datasets.values():
            unlink_array(ds.points)
            if ds.weights is not None:
                unlink_array(ds.weights)
            ds.workspaces.clear()
        self._datasets.clear()
        self.cache.clear()
        # a wedged compute past the hard deadline must not block shutdown
        self._supervisor.shutdown(wait=drained_clean)

    def _ensure_open(self) -> None:
        if self._closed:
            raise ShuttingDown("service is draining/closed")


# -- the socket front-end -----------------------------------------------------


class PartitionServer:
    """Asyncio unix-socket transport around one :class:`PartitionService`.

    One frame in, one frame out per request; concurrent requests multiplex
    through the event loop (which is what makes coalescing and batching
    observable across client processes).  Requests may carry ``deadline_ms``
    — the dispatch is cancelled at the deadline and answered with a
    structured ``deadline_exceeded`` error (service state is cancellation-
    safe: nothing commits on a cancelled request).  ``shutdown`` drains the
    service under ``drain_grace`` — every shared segment is released before
    the loop exits.
    """

    #: op name -> service coroutine attribute
    OPS = (
        "register_dataset",
        "register_manifest",
        "partition",
        "open_session",
        "repartition",
        "close_session",
        "stats",
        "health",
    )

    def __init__(
        self,
        service: PartitionService,
        socket_path: str | os.PathLike,
        drain_grace: float | None = None,
    ) -> None:
        self.service = service
        self.socket_path = os.fspath(socket_path)
        self.drain_grace = drain_grace
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    async def start(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._server = await asyncio.start_unix_server(self._handle, path=self.socket_path)

    async def serve_until_shutdown(self) -> None:
        """Serve requests until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.close()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def close(self) -> None:
        """Stop accepting, drain the service, release all shared segments."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain(self.drain_grace)
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break  # clean disconnect (EOF / truncated frame)
                except ProtocolError as exc:
                    # oversized header or garbage payload: the stream cannot
                    # be re-synchronised — answer structurally, then drop it
                    with contextlib.suppress(Exception):
                        await write_frame(writer, error_payload(exc))
                    break
                response = await self._dispatch(request)
                await write_frame(writer, response)
                if isinstance(request, dict) and request.get("op") == "shutdown":
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, request) -> dict:
        if not isinstance(request, dict) or "op" not in request:
            return error_payload(ServiceError("request must be a dict with an 'op' key"))
        op = request["op"]
        if op == "ping":
            return {"status": "ok", "value": "pong"}
        if op == "shutdown":
            self.request_shutdown()
            return {"status": "ok", "value": "draining"}
        if op not in self.OPS:
            return error_payload(ServiceError(f"unknown op {op!r}"))
        deadline_ms = request.get("deadline_ms")
        kwargs = {key: val for key, val in request.items()
                  if key not in ("op", "deadline_ms")}
        try:
            coro = getattr(self.service, op)(**kwargs)
            if deadline_ms is not None:
                value = await asyncio.wait_for(
                    coro, max(0.001, float(deadline_ms) / 1000.0)
                )
            else:
                value = await coro
            return {"status": "ok", "value": value}
        except asyncio.TimeoutError:
            return error_payload(DeadlineExceeded(
                f"request exceeded its {deadline_ms} ms deadline"
            ))
        except Exception as exc:
            return error_payload(exc)


async def serve(
    socket_path: str | os.PathLike,
    config: BalancedKMeansConfig | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
    cache_capacity: int = 128,
    compute_threads: int = 1,
    max_inflight: int | None = None,
    max_queue: int | None = 256,
    compute_timeout: float | None = None,
    breaker_threshold: int = 3,
    breaker_reset: float = 5.0,
    drain_grace: float | None = 10.0,
    ready_callback=None,
) -> None:
    """Run a :class:`PartitionServer` until it is asked to shut down.

    The entry point behind ``repro serve``; installs SIGTERM/SIGINT handlers
    so an external kill still drains gracefully — in-flight requests get up
    to ``drain_grace`` seconds to finish or checkpoint while new requests
    are rejected with ``shutting_down`` (checkpoints make even SIGKILL
    recoverable).  A :class:`~repro.runtime.faults.FaultPlan` from the
    ``REPRO_FAULTS`` environment variable is executed against the compute
    path (chaos testing against a live server).  ``ready_callback`` fires
    once the socket listens.
    """
    import signal

    faults = None
    spec = os.environ.get("REPRO_FAULTS")
    if spec:
        faults = FaultPlan.parse(spec)
    service = PartitionService(
        config=config,
        checkpoint_dir=checkpoint_dir,
        cache_capacity=cache_capacity,
        compute_threads=compute_threads,
        max_inflight=max_inflight,
        max_queue=max_queue,
        compute_timeout=compute_timeout,
        breaker_threshold=breaker_threshold,
        breaker_reset=breaker_reset,
        faults=faults,
    )
    server = PartitionServer(service, socket_path, drain_grace=drain_grace)
    await server.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.request_shutdown)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
            pass
    if ready_callback is not None:
        ready_callback()
    await server.serve_until_shutdown()
