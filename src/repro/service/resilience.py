"""Resilience primitives for the partitioning service.

This module gives the serving path (:mod:`repro.service.server`) its
SLO-aware request lifecycle.  Every request flows through the same stations:

1. **Deadline** — a client-supplied ``deadline_ms`` bounds the whole request;
   the server cancels the wait (never the committed state) when it expires.
2. **Admission** — :class:`AdmissionController` caps in-flight compute and
   the pending queue; over-limit requests are shed *immediately* with a
   structured ``overloaded`` error carrying a ``retry_after_ms`` hint instead
   of queueing unboundedly.
3. **Breaker** — a per-dataset :class:`CircuitBreaker` opens after N
   consecutive compute failures, fails fast while open, and lets a half-open
   probe through after the reset window.  Every transition is a ledger event.
4. **Supervised compute** — :class:`ComputeSupervisor` runs the numeric work
   on an executor under a hang timeout (the service-side analogue of
   ``REPRO_SUPERSTEP_TIMEOUT``), abandons and replaces a wedged executor, and
   executes a deterministic :class:`~repro.runtime.faults.FaultPlan` against
   the compute path (``crash``/``kill`` by request ordinal, ``delay``/
   ``fail`` with ``op=compute``) so chaos tests can kill a live server's
   compute mid-request.
5. **Retry** — the client-side :class:`RetryPolicy` retries only
   safe-to-retry failures (``overloaded``, ``breaker_open``, compute
   crashes/timeouts, ``shutting_down``, connection resets) with exponential
   backoff plus jitter.  Retries are safe because the service is idempotent
   by construction: one-shot results are keyed in the digest LRU, and
   session steps commit atomically with an idempotency ``request_id``, so a
   retried request is bit-identical, never recomputed-divergent.

Everything here is transport-free and asyncio-native so the whole lifecycle
is testable without sockets.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro.runtime.comm import CostLedger
from repro.runtime.faults import FaultPlan, InjectedFault

__all__ = [
    "COMPUTE_TIMEOUT_ENV",
    "DEFAULT_RETRYABLE_CODES",
    "AdmissionController",
    "BreakerOpen",
    "CircuitBreaker",
    "ComputeFailed",
    "ComputeSupervisor",
    "ComputeTimeout",
    "DeadlineExceeded",
    "RetryPolicy",
    "ServiceError",
    "ServiceFailure",
    "ServiceOverloaded",
    "ShuttingDown",
    "error_payload",
    "service_compute_timeout",
]

#: Wall-clock limit (seconds) one supervised compute may run before it is
#: presumed hung, abandoned, and its executor replaced.  Unset/0 disables the
#: watchdog — the service-layer analogue of ``REPRO_SUPERSTEP_TIMEOUT``.
COMPUTE_TIMEOUT_ENV = "REPRO_SERVICE_COMPUTE_TIMEOUT"


def service_compute_timeout() -> float | None:
    """The supervisor hang timeout configured via ``REPRO_SERVICE_COMPUTE_TIMEOUT``."""
    timeout = float(os.environ.get(COMPUTE_TIMEOUT_ENV, 0) or 0)
    return timeout if timeout > 0 else None


# -- structured errors --------------------------------------------------------


class ServiceError(RuntimeError):
    """A request the service cannot honour (unknown ids, bad shapes, closed).

    Plain :class:`ServiceError`\\ s are client mistakes — code
    ``bad_request``, never retryable.  Runtime conditions a retry can fix
    use the :class:`ServiceFailure` subclasses below.
    """

    code = "bad_request"
    retryable = False
    retry_after_ms: int | None = None


class ServiceFailure(ServiceError):
    """A runtime failure with a wire-visible code and retryability contract."""

    code = "internal"
    retryable = False

    def __init__(self, message: str, retry_after_ms: int | None = None) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ServiceOverloaded(ServiceFailure):
    """Shed by admission control; retry after ``retry_after_ms``."""

    code = "overloaded"
    retryable = True


class BreakerOpen(ServiceFailure):
    """The dataset's circuit breaker is open; retry after the reset window."""

    code = "breaker_open"
    retryable = True


class ComputeFailed(ServiceFailure):
    """The supervised compute crashed.  Safe to retry: nothing was committed."""

    code = "compute_failed"
    retryable = True


class ComputeTimeout(ServiceFailure):
    """The supervised compute hung past the watchdog timeout and was abandoned."""

    code = "compute_timeout"
    retryable = True


class DeadlineExceeded(ServiceFailure):
    """The client's ``deadline_ms`` expired.  Not retried automatically —
    the deadline was the client's own budget — but a manual retry is safe
    (nothing commits on a cancelled request)."""

    code = "deadline_exceeded"
    retryable = False


class ShuttingDown(ServiceFailure):
    """The server is draining; retry against the restarted server."""

    code = "shutting_down"
    retryable = True


def error_payload(exc: BaseException) -> dict:
    """The structured wire error for any exception (see protocol docs)."""
    return {
        "status": "error",
        "error": f"{type(exc).__name__}: {exc}",
        "code": getattr(exc, "code", "internal"),
        "retryable": bool(getattr(exc, "retryable", False)),
        "retry_after_ms": getattr(exc, "retry_after_ms", None),
    }


# -- admission control --------------------------------------------------------


class AdmissionController:
    """Bounded in-flight + pending-work gate with immediate load shedding.

    ``max_inflight`` requests hold compute slots concurrently; up to
    ``max_queue`` more wait their turn (FIFO); anything beyond that is shed
    *synchronously* with :class:`ServiceOverloaded` — the queue can never
    grow without bound.  ``None`` disables either bound.
    """

    def __init__(
        self,
        max_inflight: int | None = None,
        max_queue: int | None = None,
        ledger: CostLedger | None = None,
        retry_hint: Callable[[int], int] | None = None,
    ) -> None:
        self.max_inflight = max_inflight if max_inflight and max_inflight > 0 else None
        self.max_queue = max_queue if max_queue is None or max_queue >= 0 else 0
        self.ledger = ledger if ledger is not None else CostLedger()
        self._retry_hint = retry_hint
        self.inflight = 0
        self._waiters: deque[asyncio.Future] = deque()

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def _hint_ms(self) -> int:
        if self._retry_hint is not None:
            return max(1, int(self._retry_hint(self.queued)))
        return 100

    @contextlib.asynccontextmanager
    async def slot(self):
        """Hold one compute slot; sheds immediately when both bounds are full."""
        await self._acquire()
        try:
            yield
        finally:
            self._release()

    async def _acquire(self) -> None:
        if self.max_inflight is None or self.inflight < self.max_inflight:
            self.inflight += 1
            return
        if self.max_queue is not None and len(self._waiters) >= self.max_queue:
            self.ledger.count("requests_shed")
            hint = self._hint_ms()
            raise ServiceOverloaded(
                f"server at capacity ({self.inflight} in flight, "
                f"{len(self._waiters)} queued); retry in {hint} ms",
                retry_after_ms=hint,
            )
        fut = asyncio.get_running_loop().create_future()
        self._waiters.append(fut)
        try:
            await fut
        except asyncio.CancelledError:
            # Deadline/disconnect while queued: give the slot back if it was
            # granted between _release() and our wakeup.
            if fut in self._waiters:
                self._waiters.remove(fut)
            elif fut.done() and not fut.cancelled() and fut.exception() is None:
                self._release()
            raise

    def _release(self) -> None:
        self.inflight -= 1
        while self._waiters:
            fut = self._waiters.popleft()
            if fut.done():  # cancelled while queued
                continue
            self.inflight += 1
            fut.set_result(None)
            return

    def shed_waiters(self, exc: ServiceFailure) -> None:
        """Fail every queued request (used by drain)."""
        while self._waiters:
            fut = self._waiters.popleft()
            if not fut.done():
                fut.set_exception(exc)


# -- circuit breaker ----------------------------------------------------------


class CircuitBreaker:
    """Per-dataset three-state breaker over supervised-compute outcomes.

    ``closed`` — normal; ``threshold`` *consecutive* failures open it.
    ``open`` — :meth:`allow` fails fast with :class:`BreakerOpen` until
    ``reset_seconds`` elapse.  ``half_open`` — requests probe the dataset;
    the first success closes the breaker, the first failure re-opens it.
    Every transition is recorded on the ledger (``breaker_opened``,
    ``breaker_half_open``, ``breaker_closed``).
    """

    def __init__(
        self,
        name: str,
        threshold: int = 3,
        reset_seconds: float = 5.0,
        ledger: CostLedger | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        self.threshold = max(1, int(threshold))
        self.reset_seconds = float(reset_seconds)
        self.ledger = ledger if ledger is not None else CostLedger()
        self._clock = clock
        self.state = "closed"
        self.failures = 0
        self.opened_count = 0
        self._opened_at: float | None = None

    def _maybe_half_open(self) -> None:
        if (
            self.state == "open"
            and self._clock() - self._opened_at >= self.reset_seconds
        ):
            self.state = "half_open"
            self.ledger.record_event("breaker_half_open", dataset=self.name)

    def allow(self) -> None:
        """Raise :class:`BreakerOpen` while the breaker is open."""
        self._maybe_half_open()
        if self.state == "open":
            remaining = self.reset_seconds - (self._clock() - self._opened_at)
            hint = max(1, int(remaining * 1000))
            raise BreakerOpen(
                f"circuit breaker for dataset {self.name!r} is open after "
                f"{self.failures} consecutive compute failures; retry in {hint} ms",
                retry_after_ms=hint,
            )

    def record_success(self) -> None:
        if self.state != "closed":
            self.state = "closed"
            self.ledger.record_event("breaker_closed", dataset=self.name)
        self.failures = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.threshold:
            if self.state != "open":
                self.opened_count += 1
                self.ledger.record_event(
                    "breaker_opened", dataset=self.name, failures=self.failures
                )
            self.state = "open"
            self._opened_at = self._clock()

    def describe(self) -> dict:
        """JSON-serialisable state for the ``health`` op."""
        self._maybe_half_open()
        return {
            "state": self.state,
            "consecutive_failures": self.failures,
            "opened_count": self.opened_count,
            "threshold": self.threshold,
            "reset_seconds": self.reset_seconds,
        }


# -- supervised compute -------------------------------------------------------


class ComputeSupervisor:
    """Runs service compute on an executor under a watchdog + fault plan.

    Detects hung compute (``timeout`` seconds, default from
    ``REPRO_SERVICE_COMPUTE_TIMEOUT``), abandons the wedged call, and
    replaces the executor so later requests never queue behind a zombie
    thread — the replacement is counted as a *respawn* (``compute_respawn``
    ledger event), mirroring the worker respawns of
    :class:`~repro.runtime.procomm.ProcessComm`.

    A :class:`~repro.runtime.faults.FaultPlan` is executed against the
    compute path, addressed by the 0-based ordinal of supervised compute
    calls: ``crash:step=N`` / ``kill:rank=0,step=N`` abort request ``N``
    before any work (a killed compute session), ``delay:op=compute,index=N,
    seconds=S`` stalls it (exercising the watchdog and client deadlines),
    and ``fail:op=compute,index=N`` does the work then discards it and dies
    — a mid-request kill whose retry must still be bit-identical.
    """

    def __init__(
        self,
        threads: int = 1,
        timeout: float | None = None,
        faults: FaultPlan | None = None,
        ledger: CostLedger | None = None,
    ) -> None:
        self.threads = max(1, int(threads))
        self.timeout = timeout if timeout is None else float(timeout)
        self.faults = faults
        self.ledger = ledger if ledger is not None else CostLedger()
        self.respawns = 0
        self.step = 0  # ordinal of the next supervised compute
        self.avg_compute_s: float | None = None
        self._pool = self._make_pool()
        self._retired: list[ThreadPoolExecutor] = []  # pools with abandoned work

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.threads, thread_name_prefix="repro-service"
        )

    def retry_after_ms(self, queue_depth: int = 0) -> int:
        """Load-shedding hint: roughly one average compute per queued request."""
        base = self.avg_compute_s if self.avg_compute_s is not None else 0.05
        return min(5000, max(25, int(1000 * base * (queue_depth + 1))))

    def _observe(self, started: float) -> None:
        elapsed = time.perf_counter() - started
        if self.avg_compute_s is None:
            self.avg_compute_s = elapsed
        else:  # EWMA with enough memory to smooth cache-hit-free bursts
            self.avg_compute_s = 0.7 * self.avg_compute_s + 0.3 * elapsed

    async def run(self, fn: Callable[[], object], label: str | None = None):
        """Run ``fn`` supervised; raises only :class:`ServiceFailure` kinds.

        ``fn`` must be pure with respect to service state — callers commit
        its result only after this returns, which is what makes abandoning
        a hung/cancelled compute safe (and retries bit-identical).
        """
        step = self.step
        self.step += 1
        delay = fail = None
        plan = self.faults
        if plan is not None:
            spec = plan.take_crash(step)
            if spec is None:
                spec = plan.take_kill(step)
            if spec is not None:
                self.ledger.record_event(
                    "injected_compute_crash", step=step, label=label
                )
                raise ComputeFailed(
                    f"injected compute crash at request #{step} ({label})"
                )
            delay = plan.take_collective("delay", "compute", step)
            fail = plan.take_collective("fail", "compute", step)
            if delay is not None:
                self.ledger.record_event(
                    "injected_compute_delay", step=step, seconds=delay.seconds,
                    label=label,
                )

        def job():
            if delay is not None:
                time.sleep(delay.seconds)
            out = fn()
            if fail is not None:
                raise InjectedFault(
                    f"injected compute failure after the work of request #{step}"
                )
            return out

        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._pool, job)
        started = time.perf_counter()
        try:
            # shield: on timeout/cancel the *wait* dies instantly while the
            # executor thread runs on; _abandon decides whether it wedged.
            if self.timeout is None:
                result = await asyncio.shield(future)
            else:
                result = await asyncio.wait_for(asyncio.shield(future), self.timeout)
        except asyncio.TimeoutError:
            self._abandon(future)
            self.ledger.record_event(
                "compute_timeout", step=step, timeout=self.timeout, label=label
            )
            raise ComputeTimeout(
                f"compute exceeded the {self.timeout:g}s supervisor timeout "
                f"and was abandoned ({label})"
            ) from None
        except asyncio.CancelledError:
            self._abandon(future)
            raise
        except InjectedFault as exc:
            self._observe(started)
            self.ledger.record_event(
                "injected_compute_failure", step=step, label=label
            )
            raise ComputeFailed(str(exc)) from exc
        except Exception as exc:
            self._observe(started)
            raise ComputeFailed(f"{type(exc).__name__}: {exc}") from exc
        self._observe(started)
        return result

    def _abandon(self, future: asyncio.Future) -> None:
        """Walk away from an in-flight compute; replace the pool if it wedged."""
        if future.done():
            return
        future.add_done_callback(
            lambda f: f.cancelled() or f.exception()  # silence late failures
        )
        self._pool.shutdown(wait=False)
        self._retired.append(self._pool)
        self._pool = self._make_pool()
        self.respawns += 1
        self.ledger.count("compute_respawns")
        self.ledger.record_event("compute_respawn", respawns=self.respawns)

    def quiesce(self, timeout: float | None = None) -> bool:
        """Block until every *abandoned* compute thread has actually exited.

        Abandoned computes keep running after their request was answered
        (timeout/cancel) — often mid-sweep over shared-memory segments the
        service owns.  Callers that are about to release those segments
        (drain) MUST quiesce first, or a wedged thread reads unmapped
        memory.  Returns ``False`` if a thread outlived ``timeout`` — the
        caller should then *leak* its segments (the resource tracker
        reclaims them at process exit) rather than unmap under it.
        """
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        clean = True
        for pool in self._retired:
            for thread in list(getattr(pool, "_threads", ())):
                remaining = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                thread.join(remaining)
                if thread.is_alive():
                    clean = False
        if clean:
            self._retired.clear()
        return clean

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


# -- client-side retry policy -------------------------------------------------

#: Codes the default policy treats as safe to retry.  ``"connection"`` is the
#: pseudo-code for transport-level failures (reset, EOF mid-frame, reply
#: timeout, server restart) — safe because every service op a client retries
#: is idempotent (digest-keyed cache, session ``request_id`` replay).
DEFAULT_RETRYABLE_CODES = (
    "overloaded",
    "breaker_open",
    "compute_failed",
    "compute_timeout",
    "shutting_down",
    "connection",
)


@dataclass
class RetryPolicy:
    """Exponential backoff with jitter over the safe-to-retry error codes.

    ``max_attempts`` bounds total tries (1 = no retries).  The *n*-th retry
    sleeps ``base_delay * multiplier**n`` (capped at ``max_delay``), inflated
    by up to ``jitter`` fraction of itself so synchronized clients do not
    re-stampede a recovering server; a server ``retry_after_ms`` hint raises
    the floor.  ``seed`` pins the jitter stream for reproducible tests.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    retry_codes: tuple = DEFAULT_RETRYABLE_CODES
    seed: int | None = None

    def delays(self):
        """Yield the backoff sleep (seconds) before each retry, in order."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(max(0, self.max_attempts - 1)):
            yield delay * (1.0 + self.jitter * rng.random())
            delay = min(self.max_delay, delay * self.multiplier)

    def retries(self, code: str) -> bool:
        return code in self.retry_codes
