"""Process-parallel execution backend: real worker processes per rank.

:class:`ProcessComm` implements the :class:`~repro.runtime.comm.Comm`
protocol with one long-lived worker *process* per rank:

- :meth:`ProcessComm.run_local` ships the rank function to every worker
  over a pipe and executes all ranks concurrently.  Rank functions are
  driver-local closures, which standard pickle refuses to serialise, so
  they are shipped *by value* through the freezing machinery of
  :mod:`repro.runtime._shipping` (shared with the MPI backend): the code
  object via :mod:`marshal`, the closure cells and defaults via pickle
  (recursively, so closures capturing other local functions work), and
  globals resolved in the worker by importing the defining module.
  Workers are forked from the driver, so
  every module the driver can see, they can see.  The message is pickled
  once per superstep (not once per worker), but a closure that captures a
  whole per-rank list ships that list to *every* worker — keep large
  captured state in :meth:`ProcessComm.share` arrays, whose handles cost
  ~100 bytes, and return only what changed.
- large read-mostly arrays go through :meth:`ProcessComm.share`, which
  copies them into a ``multiprocessing.shared_memory`` segment once.  The
  returned :class:`SharedArray` is a normal ndarray in every respect except
  that pickling it (inside a shipped closure, or in a worker's return
  value) costs a ~100-byte handle instead of the data.  Views that still
  point into the segment also ship as handles; slices/copies whose data has
  left the segment silently fall back to ordinary by-value pickling.
- collectives reuse the exact combination kernels of the virtual backend
  (``combine_*`` in :mod:`repro.runtime.comm`), executed in the driver on
  the values the workers returned — so collective results are bit-identical
  across backends by construction.
- the ledger holds **measured** wall-clock: per superstep, the slowest
  worker's in-process compute time is charged as compute and the remaining
  dispatch/serialisation time as communication under op ``"dispatch"``;
  collectives charge their measured driver-side time.

Lifecycle: workers are started in ``__init__`` and torn down by
:meth:`ProcessComm.close` (idempotent; also a context manager).  An ``atexit`` hook
closes every communicator still alive at interpreter shutdown, joining the
workers and unlinking all shared-memory segments, so crashes and test
failures do not leak ``/dev/shm`` blocks or zombie processes.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import time
import traceback
import weakref
from multiprocessing import shared_memory
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.runtime._shipping import freeze_function, thaw_function
from repro.runtime.comm import (
    Comm,
    combine_allgather,
    combine_allreduce,
    combine_alltoallv,
    register_backend,
)
from repro.runtime.costmodel import SUPERMUC_LIKE, MachineModel, MachineTopology

__all__ = [
    "MAX_RESPAWNS_ENV",
    "ProcessComm",
    "SharedArray",
    "SUPERSTEP_TIMEOUT_ENV",
    "assert_no_leaks",
    "leaked_resources",
    "share_array",
    "share_array_from_rows",
    "shutdown_process_comms",
    "unlink_array",
]

try:  # numpy >= 2.0 moved byte_bounds out of the top-level namespace
    from numpy.lib.array_utils import byte_bounds as _byte_bounds
except ImportError:  # pragma: no cover - numpy < 2.0
    _byte_bounds = np.byte_bounds

_JOIN_TIMEOUT = 5.0
_POLL_INTERVAL = 0.05

#: How many dead workers a communicator will re-fork before giving up.
MAX_RESPAWNS_ENV = "REPRO_MAX_RESPAWNS"
_DEFAULT_MAX_RESPAWNS = 2

#: Optional wall-clock limit (seconds) a superstep may run on one worker
#: before the worker is presumed hung, killed, and respawned.  Unset/0 means
#: wait forever (the pre-PR-7 behavior).
SUPERSTEP_TIMEOUT_ENV = "REPRO_SUPERSTEP_TIMEOUT"


# -- shared-memory arrays ----------------------------------------------------

# Segments this process has attached to (worker side), keyed by name.  One
# attachment per segment per process; closed when the worker exits.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _disable_shm_tracking() -> None:
    """Stop this process's resource tracker from tracking shared memory.

    Workers only ever *attach* to segments the driver created; the driver
    owns unlink.  A forked worker shares the driver's tracker process, so a
    worker-side register/unregister would corrupt the driver's accounting
    (spurious KeyErrors in the tracker, or segments untracked while still
    live).  Called once at worker startup, before any attachment.
    """
    try:  # pragma: no cover - tracker layout is an implementation detail
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        original_unregister = resource_tracker.unregister

        def register(name, rtype):
            if rtype != "shared_memory":
                original_register(name, rtype)

        def unregister(name, rtype):
            if rtype != "shared_memory":
                original_unregister(name, rtype)

        resource_tracker.register = register
        resource_tracker.unregister = unregister
    except Exception:
        pass


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACHED.get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = shm
    return shm


def _close_attachments() -> None:
    for shm in _ATTACHED.values():
        try:
            shm.close()
        except BufferError:  # arrays still alive; the OS unmaps at process exit
            pass
    _ATTACHED.clear()


def _attach_view(name: str, offset: int, shape: tuple, strides: tuple, dtype: str) -> "SharedArray":
    shm = _attach_segment(name)
    arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset, strides=strides)
    view = arr.view(SharedArray)
    view._shm = shm
    return view


def share_array(array: np.ndarray) -> "SharedArray | np.ndarray":
    """Copy ``array`` into a fresh shared-memory segment owned by the caller.

    The standalone counterpart of :meth:`ProcessComm.share` for code that
    owns segments without a communicator (e.g. the partitioning service,
    which keeps one segment per registered dataset for the server's whole
    lifetime).  The caller must eventually pass the returned view to
    :func:`unlink_array`; zero-byte arrays are returned as-is (nothing to
    share, nothing to unlink).
    """
    arr = np.ascontiguousarray(array)
    if arr.nbytes == 0:
        return arr
    seg = shared_memory.SharedMemory(create=True, size=arr.nbytes)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
    view[...] = arr
    shared = view.view(SharedArray)
    shared._shm = seg
    return shared


def share_array_from_rows(chunks, shape: tuple, dtype) -> "SharedArray | np.ndarray":
    """Fill a fresh shared segment from an iterable of row chunks.

    The streaming counterpart of :func:`share_array` for data that never
    exists as one in-memory array — e.g. the partitioning service
    registering a sharded on-disk dataset shard-at-a-time.  ``chunks`` must
    yield row blocks that concatenate to exactly ``shape[0]`` rows.
    """
    shape = tuple(int(s) for s in shape)
    dt = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dt.itemsize
    if nbytes == 0:
        return np.empty(shape, dtype=dt)
    seg = shared_memory.SharedMemory(create=True, size=nbytes)
    view = np.ndarray(shape, dtype=dt, buffer=seg.buf)
    row = 0
    try:
        for chunk in chunks:
            arr = np.ascontiguousarray(chunk, dtype=dt)
            if arr.shape[1:] != shape[1:]:
                raise ValueError(f"chunk row shape {arr.shape[1:]} != {shape[1:]}")
            if row + arr.shape[0] > shape[0]:
                raise ValueError(f"chunks exceed the declared {shape[0]} rows")
            view[row : row + arr.shape[0]] = arr
            row += arr.shape[0]
        if row != shape[0]:
            raise ValueError(f"chunks supplied {row} of {shape[0]} declared rows")
    except Exception:
        del view
        _unlink_segment(seg)
        raise
    shared = view.view(SharedArray)
    shared._shm = seg
    return shared


def unlink_array(array: np.ndarray) -> None:
    """Close and unlink the segment backing a :func:`share_array` view.

    Safe to call on plain ndarrays (no-op) and idempotent per segment; the
    view must not be used afterwards.
    """
    seg = getattr(array, "_shm", None)
    if seg is not None:
        _unlink_segment(seg)


def _unlink_segment(seg: shared_memory.SharedMemory) -> None:
    # the owning process may also hold an attachment under this name (it
    # unpickles worker-returned handles through _attach_segment)
    attached = _ATTACHED.pop(seg.name, None)
    for handle in (attached, seg):
        if handle is None:
            continue
        try:
            handle.close()
        except BufferError:  # a view is still alive; unmapped at gc/exit
            pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass


class SharedArray(np.ndarray):
    """ndarray view over a ``multiprocessing.shared_memory`` segment.

    Pickles as a ``(segment, offset, shape, strides, dtype)`` handle while
    the viewed bytes lie inside the segment — which holds for the array
    itself and any slice of it — and falls back to ordinary by-value
    ndarray pickling for derived arrays (fancy-index results, ``.copy()``,
    reductions) whose data has left the segment.
    """

    def __array_finalize__(self, obj):
        self._shm = getattr(obj, "_shm", None)

    def __reduce__(self):
        shm = getattr(self, "_shm", None)
        if shm is not None and self.size > 0:
            seg_lo = np.frombuffer(shm.buf, dtype=np.uint8).__array_interface__["data"][0]
            lo, hi = _byte_bounds(self)
            if seg_lo <= lo and hi <= seg_lo + shm.size:
                return (
                    _attach_view,
                    (shm.name, int(lo - seg_lo), self.shape, self.strides, self.dtype.str),
                )
        return self.view(np.ndarray).__reduce__()


# -- worker loop -------------------------------------------------------------


def _worker_main(rank: int, conn) -> None:
    """Worker process: execute shipped rank functions until told to exit."""
    _disable_shm_tracking()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "run":
                try:
                    fn = thaw_function(msg[1])
                    start = time.perf_counter()
                    value = fn(rank)
                    reply = ("ok", value, time.perf_counter() - start)
                except BaseException:
                    reply = ("err", traceback.format_exc())
                try:
                    conn.send(reply)
                except Exception:  # unpicklable result: report, don't die
                    conn.send(("err", traceback.format_exc()))
                # drop references so released segments can actually unmap
                fn = value = reply = msg = None
            elif msg[0] == "release":
                shm = _ATTACHED.pop(msg[1], None)
                if shm is not None:
                    try:
                        shm.close()
                    except BufferError:  # a view survived; unmapped at exit
                        pass
            else:  # "exit"
                break
    finally:
        _close_attachments()
        try:
            conn.close()
        except Exception:
            pass


# -- the backend -------------------------------------------------------------

_LIVE_COMMS: "weakref.WeakSet[ProcessComm]" = weakref.WeakSet()


#: Per-escalation-step join budget on the atexit path.  Interpreter exit must
#: never block on a wedged worker longer than ~3x this (join, terminate, kill).
_ATEXIT_JOIN_TIMEOUT = 1.0


def shutdown_process_comms(join_timeout: float = _ATEXIT_JOIN_TIMEOUT) -> None:
    """Close every live :class:`ProcessComm` (tests and the ``atexit`` hook).

    Bounded: each close escalates join → terminate → kill with
    ``join_timeout`` per step, so a SIGSTOPped or wedged worker cannot hang
    interpreter shutdown.
    """
    for comm in list(_LIVE_COMMS):
        comm.close(join_timeout=join_timeout)


class ProcessComm(Comm):
    """Run ranks as real worker processes; report measured wall-clock.

    Parameters
    ----------
    nranks:
        Number of worker processes (the paper's ``p``).  Each rank is one
        OS process, so keep this near the core count.
    machine:
        Accepted for constructor parity with :class:`VirtualComm`; kept for
        reference (e.g. modeled-vs-measured comparisons) but never charged.
    topology:
        Accepted for parity; validated against ``nranks`` like the virtual
        backend but otherwise unused — real hardware provides its own
        hierarchy.
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (required for shipping closures defined in non-importable
        modules, e.g. test files, since forked workers inherit
        ``sys.modules``).
    """

    kind = "process"
    measured = True
    persistent_state = False

    def __init__(
        self,
        nranks: int,
        machine: MachineModel | None = None,
        topology: MachineTopology | None = None,
        start_method: str | None = None,
    ) -> None:
        super().__init__(nranks)
        self.machine = machine or SUPERMUC_LIKE
        if topology is not None and topology.total != self.nranks:
            raise ValueError(
                f"topology has {topology.total} leaves but communicator has {self.nranks} ranks"
            )
        self.topology = topology
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else None
        self._ctx = mp.get_context(start_method)
        self._workers: list = []
        self._conns: list = []
        self._segments: list[shared_memory.SharedMemory] = []
        self._closed = False
        self._respawns_left = int(os.environ.get(MAX_RESPAWNS_ENV, _DEFAULT_MAX_RESPAWNS))
        timeout = float(os.environ.get(SUPERSTEP_TIMEOUT_ENV, 0) or 0)
        self._superstep_timeout: float | None = timeout if timeout > 0 else None
        try:
            for rank in range(self.nranks):
                parent, proc = self._spawn(rank)
                self._workers.append(proc)
                self._conns.append(parent)
        except BaseException:
            self.close()
            raise
        _LIVE_COMMS.add(self)

    def _spawn(self, rank: int):
        """Fork one worker process; returns ``(driver_conn, process)``."""
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(rank, child), daemon=True,
            name=f"repro-rank-{rank}",
        )
        proc.start()
        child.close()
        return parent, proc

    # -- local compute -----------------------------------------------------

    def run_local(self, fn: Callable[[int], object]) -> list:
        """Ship ``fn`` to every worker, run all ranks concurrently, gather results.

        Charges the slowest worker's in-process time as compute and the
        dispatch/serialisation remainder as communication (op ``"dispatch"``).
        Exceptions raised by any rank re-raise in the driver with the
        worker's traceback; the workers survive and stay usable.

        A worker that died (or, when ``REPRO_SUPERSTEP_TIMEOUT`` is set,
        hangs) is detected here, re-forked, and the lost superstep is
        re-dispatched to it — exactly replayable when the worker never
        started the superstep (the injected-kill case) and best-effort for
        a genuine mid-superstep death, where checkpoint/resume is the
        backstop.  Each recovery consumes one unit of the respawn budget
        (``REPRO_MAX_RESPAWNS``, default 2) and is recorded as a
        ``worker_respawn`` ledger event; with the budget exhausted the
        communicator closes and raises.
        """
        self._ensure_open()
        start = time.perf_counter()
        # serialise once, send the same bytes to every worker: Connection.send
        # would re-pickle the (possibly large) captured state p times.
        # Connection.recv on the worker side is byte-compatible with
        # send_bytes(ForkingPickler.dumps(...)).
        blob = ForkingPickler.dumps(("run", freeze_function(fn)))
        for rank, conn in enumerate(self._conns):
            try:
                conn.send_bytes(blob)
            except (OSError, ValueError):
                # dead before dispatch; _recv_reply respawns and re-sends
                pass
        results: list = []
        worst = 0.0
        failure: tuple[int, str] | None = None
        for rank in range(self.nranks):
            reply = self._recv_reply(rank, blob)
            if reply[0] == "err":
                failure = failure or (rank, reply[1])
            else:
                results.append(reply[1])
                worst = max(worst, reply[2])
        if failure is not None:
            raise RuntimeError(f"rank {failure[0]} raised during run_local:\n{failure[1]}")
        wall = time.perf_counter() - start
        self.ledger.charge_compute(worst, self._stage)
        self.ledger.charge_comm(max(0.0, wall - worst), "dispatch", self._stage)
        self.ledger.supersteps += 1
        return results

    # -- failure detection + recovery ----------------------------------------

    def _recv_reply(self, rank: int, blob: bytes):
        """Await rank's superstep reply, recovering from death or hang."""
        deadline = (
            None if self._superstep_timeout is None
            else time.perf_counter() + self._superstep_timeout
        )
        while True:
            conn = self._conns[rank]
            proc = self._workers[rank]
            try:
                if conn.poll(_POLL_INTERVAL):
                    return conn.recv()
            except (EOFError, OSError, ValueError):
                self._recover(rank, blob, reason="worker pipe broke mid-superstep")
                deadline = None  # replay gets a fresh (unlimited) window
                continue
            if not proc.is_alive():
                self._recover(
                    rank, blob, reason=f"worker exited with code {proc.exitcode}"
                )
                deadline = None
                continue
            if deadline is not None and time.perf_counter() > deadline:
                proc.kill()
                proc.join(_JOIN_TIMEOUT)
                self._recover(
                    rank, blob,
                    reason=f"superstep exceeded {self._superstep_timeout:g}s timeout",
                )
                deadline = None

    def _recover(self, rank: int, blob: bytes, reason: str) -> None:
        """Re-fork a dead worker and re-dispatch the lost superstep to it."""
        if self._respawns_left <= 0:
            self.close()
            raise RuntimeError(
                f"rank {rank} died ({reason}) and the respawn budget is exhausted "
                f"(raise {MAX_RESPAWNS_ENV} to allow more recoveries, or resume "
                "from the latest checkpoint)"
            )
        self._respawns_left -= 1
        self._respawn(rank)
        self.ledger.record_event(
            "worker_respawn",
            rank=rank,
            superstep=self.ledger.supersteps,
            reason=reason,
            respawns_left=self._respawns_left,
        )
        self._conns[rank].send_bytes(blob)

    def _respawn(self, rank: int) -> None:
        """Replace a dead worker with a fresh fork under the same rank.

        The new worker re-attaches :class:`SharedArray` segments lazily: the
        replayed superstep's closure carries segment *handles*, and
        unpickling them in the fresh process maps the segments again — no
        driver-side bookkeeping is needed.
        """
        old_proc = self._workers[rank]
        if old_proc.is_alive():  # pragma: no cover - defensive
            old_proc.kill()
        old_proc.join(_JOIN_TIMEOUT)
        try:
            self._conns[rank].close()
        except OSError:  # pragma: no cover - already broken
            pass
        parent, proc = self._spawn(rank)
        self._workers[rank] = proc
        self._conns[rank] = parent

    # -- collectives ---------------------------------------------------------

    def allreduce(self, per_rank: Sequence[np.ndarray]) -> np.ndarray:
        self._check_ranks(per_rank)
        start = time.perf_counter()
        out = combine_allreduce(per_rank)
        self.ledger.charge_comm(time.perf_counter() - start, "allreduce", self._stage)
        return out

    def allgather(self, per_rank: Sequence[np.ndarray]) -> np.ndarray:
        self._check_ranks(per_rank)
        start = time.perf_counter()
        out, _ = combine_allgather(per_rank)
        self.ledger.charge_comm(time.perf_counter() - start, "allgather", self._stage)
        return out

    def alltoallv(self, send: Sequence[Sequence[np.ndarray]]) -> list[np.ndarray]:
        self._check_ranks(send)
        start = time.perf_counter()
        recv, _ = combine_alltoallv(send, self.nranks)
        self.ledger.charge_comm(time.perf_counter() - start, "alltoallv", self._stage)
        return recv

    def broadcast(self, value: np.ndarray) -> np.ndarray:
        arr = np.asarray(value)
        self.ledger.charge_comm(0.0, "broadcast", self._stage)
        return arr

    # -- shared memory + lifecycle ------------------------------------------

    def share(self, array: np.ndarray) -> np.ndarray:
        """Copy ``array`` into a shared-memory segment owned by this comm.

        The segment lives until :meth:`close`; the returned
        :class:`SharedArray` (and its slices) pickle as tiny handles.
        Shared views are invalidated by :meth:`close` — copy anything that
        must outlive the communicator (``np.array(view)``) first.
        """
        self._ensure_open()
        arr = np.ascontiguousarray(array)
        if arr.nbytes == 0:
            return arr
        seg = shared_memory.SharedMemory(create=True, size=arr.nbytes)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        view[...] = arr
        shared = view.view(SharedArray)
        shared._shm = seg
        self._segments.append(seg)
        return shared

    def release(self, *arrays: np.ndarray) -> None:
        """Unlink the segments backing ``arrays`` and detach them everywhere.

        Workers drop their attachment at the next message; the driver closes
        and unlinks immediately, so a run that shares a dataset, transforms
        it, and shares the result keeps only one copy in ``/dev/shm``.  The
        released views (driver- and worker-side) must not be used again.
        A no-op on a closed comm (close already unlinked everything), so
        cleanup paths may call it unconditionally.
        """
        if self._closed:
            return
        for arr in arrays:
            seg = getattr(arr, "_shm", None)
            if seg is None or seg not in self._segments:
                continue
            for conn in self._conns:
                try:
                    conn.send(("release", seg.name))
                except (OSError, ValueError):
                    # a dead worker cannot detach, but it cannot hold the
                    # mapping either — the driver still owns the unlink, so
                    # teardown stays graceful and leak-free
                    pass
            self._segments.remove(seg)
            self._drop_segment(seg)

    @staticmethod
    def _drop_segment(seg: shared_memory.SharedMemory) -> None:
        _unlink_segment(seg)

    def close(self, join_timeout: float = _JOIN_TIMEOUT) -> None:
        """Join workers (escalating to terminate, then kill) and unlink memory.

        Idempotent and *bounded*: a worker that ignores the exit message is
        sent SIGTERM after ``join_timeout`` seconds and SIGKILL after
        another ``join_timeout`` — SIGKILL also reaps workers that are
        stopped (SIGSTOP) or wedged in uninterruptible state, where SIGTERM
        merely stays pending.  This keeps the ``atexit`` path from hanging
        interpreter shutdown on a wedged worker.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for escalate in (None, "terminate", "kill"):
            deadline = time.perf_counter() + join_timeout
            alive = False
            for proc in self._workers:
                if escalate is not None and proc.is_alive():
                    getattr(proc, escalate)()
                proc.join(timeout=max(0.0, deadline - time.perf_counter()))
                alive = alive or proc.is_alive()
            if not alive:
                break
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for seg in self._segments:
            self._drop_segment(seg)
        self._segments.clear()
        _LIVE_COMMS.discard(self)

    def __del__(self):  # pragma: no cover - gc-order dependent
        try:
            self.close()
        except Exception:
            pass

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("ProcessComm is closed")


# -- leak auditing -----------------------------------------------------------

_SHM_DIR = Path("/dev/shm")


def leaked_resources() -> dict[str, list[str]]:
    """Snapshot of process-backend resources currently live on this host.

    Returns ``{"segments": [...], "workers": [...]}``: anonymous
    shared-memory segments (``psm_*`` under ``/dev/shm``) and live
    ``repro-rank-*`` worker processes of this driver.  Take a snapshot
    before creating a communicator and diff after teardown with
    :func:`assert_no_leaks` — graceful teardown (even with dead workers)
    must leave both lists unchanged.
    """
    segments: list[str] = []
    if _SHM_DIR.is_dir():  # pragma: no branch - always true on Linux
        segments = sorted(p.name for p in _SHM_DIR.iterdir() if p.name.startswith("psm_"))
    workers = sorted(
        proc.name for proc in mp.active_children() if proc.name.startswith("repro-rank-")
    )
    return {"segments": segments, "workers": workers}


def assert_no_leaks(before: dict[str, list[str]] | None = None) -> None:
    """Raise ``AssertionError`` if segments/workers appeared since ``before``.

    With ``before=None`` asserts that *nothing* repro-owned is live.  Worker
    processes are given a short grace period to be reaped — ``close()`` has
    joined them, but ``active_children`` only drops a child once waited on.
    """
    base = before or {"segments": [], "workers": []}
    deadline = time.perf_counter() + _JOIN_TIMEOUT
    while True:
        now = leaked_resources()
        new_segments = [s for s in now["segments"] if s not in base["segments"]]
        new_workers = [w for w in now["workers"] if w not in base["workers"]]
        if not new_segments and not new_workers:
            return
        if time.perf_counter() > deadline:
            raise AssertionError(
                f"process backend leaked resources: segments={new_segments}, "
                f"workers={new_workers}"
            )
        time.sleep(_POLL_INTERVAL)


register_backend("process", ProcessComm)
atexit.register(shutdown_process_comms)
