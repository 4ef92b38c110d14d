"""MPI execution backend: ranks are real ``mpiexec``-launched processes.

:class:`MPIComm` implements the :class:`~repro.runtime.comm.Comm` protocol
on :mod:`mpi4py`.  The repo's algorithms are written driver-centric (the
driver holds per-rank lists and calls collectives on them), while MPI is
SPMD (every process runs the same program), so this module also provides
the bridge between the two models:

- MPI rank 0 is the **driver**: it constructs :class:`MPIComm`, runs the
  algorithm, and plays worker for rank 0 itself.  Every other rank sits in
  :func:`worker_loop`, serving supersteps.  :func:`spmd_main` wires the two
  together (``python -m repro.runtime.mpi_main`` is the packaged
  entrypoint); a communicator asked for fewer ranks than ``mpiexec``
  launched simply leaves the surplus ranks idle, which is how the
  equivalence suite runs p ∈ {1, 2, 4} inside one ``mpiexec -n 4`` job.
- :meth:`MPIComm.run_local` broadcasts the rank function — a driver-local
  closure, marshalled by the freezing machinery shared with the process
  backend (:mod:`repro.runtime._shipping`) — executes rank 0 in the
  driver, and gathers every rank's return value back.
- :meth:`MPIComm.share` broadcasts the array once and each rank keeps a
  **rank-resident copy** that its rank function mutates in place across
  supersteps; inside shipped closures the array travels as a small integer
  handle, not data.  The driver's copy is authoritative only for rank 0,
  so driver-side reads of worker-mutated state must go through
  :meth:`MPIComm.collect`, which fetches each rank's authoritative copy
  (identity on the other backends).  Slices or derived arrays pickle by
  value from the driver copy — capture the whole shared array in closures,
  as the superstep contract already requires.
- collectives execute in the driver on the gathered per-rank values using
  the exact ``combine_*`` kernels every backend shares, so collective
  results — and therefore assignments, centers, sorted orders, SpMV
  outputs — are **bit-identical** to the virtual and process backends by
  construction (pinned by ``tests/test_backend_equivalence.py`` and the
  ``mpi-backend`` CI job).
- the ledger holds **measured** ``MPI.Wtime`` per stage: the slowest
  rank's in-closure time is charged as compute, the broadcast/gather
  remainder as communication under op ``"dispatch"`` (mirroring the
  process backend's measured split).

This module imports :mod:`mpi4py` at import time and must only be imported
through the lazy backend registry (``make_comm(..., backend="mpi")``) or
by SPMD entry code; importing repro itself never touches it, and a missing
``mpi4py`` surfaces as a :class:`RuntimeError` naming the package.
"""

from __future__ import annotations

import atexit
import pickle
import sys
import traceback
import weakref
from typing import Callable, Sequence

import numpy as np
from mpi4py import MPI

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
    "MPIComm",
    "MPIShared",
    "is_driver",
    "spmd_main",
    "stop_workers",
    "worker_loop",
    "world_size",
]


def is_driver() -> bool:
    """True on the MPI rank that may construct communicators (rank 0)."""
    return MPI.COMM_WORLD.Get_rank() == 0


def world_size() -> int:
    """Real communicator size fixed at ``mpiexec`` launch (1 outside MPI)."""
    return MPI.COMM_WORLD.Get_size()


# -- rank-resident shared arrays ---------------------------------------------

#: Arrays this rank holds, keyed by handle.  On rank 0 this is the driver's
#: store (authoritative for rank 0's mutations); on workers it holds the
#: rank-resident copies their rank functions mutate across supersteps.
_STORE: dict[int, "MPIShared"] = {}

_next_handle = iter(range(1, 1 << 62)).__next__


def _lookup_shared(handle: int) -> "MPIShared":
    arr = _STORE.get(handle)
    if arr is None:
        raise RuntimeError(
            f"shared array {handle} is not resident on MPI rank "
            f"{MPI.COMM_WORLD.Get_rank()} (released, or shared by another run?)"
        )
    return arr


class MPIShared(np.ndarray):
    """ndarray with a rank-resident copy on every MPI rank.

    On the driver (rank 0) the canonical object pickles as its integer
    handle, so shipped closures cost bytes, not data; each receiving rank
    resolves the handle to its own resident copy and mutates that in
    place.  On workers — and for any slice or derived array anywhere —
    pickling falls back to ordinary by-value ndarray semantics, which is
    exactly right for worker return values: the data that comes back to
    the driver is the rank's authoritative copy.
    """

    def __array_finalize__(self, obj):
        self._handle = getattr(obj, "_handle", None)

    def __reduce__(self):
        handle = getattr(self, "_handle", None)
        if handle is not None and _STORE.get(handle) is self and is_driver():
            return (_lookup_shared, (handle,))
        return self.view(np.ndarray).__reduce__()


def _store_shared(handle: int, arr: np.ndarray) -> "MPIShared":
    view = np.ascontiguousarray(arr).view(MPIShared)
    view._handle = handle
    _STORE[handle] = view
    return view


# -- worker side --------------------------------------------------------------

_STOPPED = False


def worker_loop() -> None:
    """Serve supersteps on an MPI rank > 0 until the driver sends ``stop``.

    Every message is a broadcast from rank 0, so idle ranks (those beyond a
    communicator's ``nranks``) stay synchronised by consuming each message
    and contributing ``None`` to the reply gathers.
    """
    world = MPI.COMM_WORLD
    rank = world.Get_rank()
    if rank == 0:
        raise RuntimeError("worker_loop serves ranks > 0; rank 0 is the driver")
    while True:
        msg = world.bcast(None, root=0)
        op = msg[0]
        # Any exception escaping an op handler here would silently end this
        # rank's loop while the driver and the other ranks continue — the
        # next collective would then deadlock forever.  "run"/"collect"
        # already report errors through their reply gathers; for everything
        # else the only safe exits are a served message or a loud abort of
        # the whole communicator.
        try:
            if op == "run":
                _, nranks, blob = msg
                reply = None
                if rank < nranks:
                    try:
                        # the closure arrives pre-pickled so idle ranks (which
                        # hold no resident copies its handles resolve to) never
                        # unpickle it
                        fn = thaw_function(pickle.loads(blob))
                        start = MPI.Wtime()
                        value = fn(rank)
                        reply = ("ok", value, MPI.Wtime() - start)
                        pickle.dumps(reply)  # unpicklable result: report, don't die
                    except BaseException:
                        reply = ("err", traceback.format_exc())
                world.gather(reply, root=0)
            elif op == "share":
                _, nranks, handle, arr = msg
                # handles only resolve inside "run"/"collect" messages gated on
                # rank < nranks, so idle ranks consume the bcast but keep no copy
                if rank < nranks:
                    _store_shared(handle, arr)
            elif op == "release":
                for handle in msg[1]:
                    _STORE.pop(handle, None)
            elif op == "collect":
                _, nranks, handles = msg
                reply = None
                if rank < nranks and handles[rank] is not None:
                    arr = _STORE.get(handles[rank])
                    if arr is None:
                        reply = ("err", f"shared array {handles[rank]} not resident")
                    else:
                        reply = ("ok", arr)
                world.gather(reply, root=0)
            else:  # "stop"
                _STORE.clear()
                return
        except BaseException:  # pragma: no cover - exercised via stub MPI
            print(f"[repro] rank {rank} worker loop failed on {op!r}:", file=sys.stderr)
            traceback.print_exc()
            sys.stderr.flush()
            world.Abort(1)
            raise  # only reached when Abort is mocked out


def spmd_main(driver: Callable[[], object]):
    """SPMD bridge: run ``driver()`` on rank 0, serve supersteps elsewhere.

    Returns the driver's return value on rank 0 and ``None`` on every other
    rank; the workers are always released (even when the driver raises), so
    ``mpiexec`` jobs terminate instead of hanging in a broadcast.
    """
    if not is_driver():
        worker_loop()
        return None
    try:
        return driver()
    finally:
        stop_workers()


def stop_workers() -> None:
    """Close live communicators and end every :func:`worker_loop`.  Idempotent.

    Called by :func:`spmd_main` when the driver finishes and by an
    ``atexit`` hook as a safety net, so a driver script that forgets it
    does not leave worker ranks blocked in a broadcast forever.
    """
    global _STOPPED
    if _STOPPED or not is_driver():
        return
    for comm in list(_LIVE_COMMS):
        comm.close()
    _STOPPED = True
    if world_size() > 1:
        MPI.COMM_WORLD.bcast(("stop",), root=0)
    _STORE.clear()


# -- the backend --------------------------------------------------------------

_LIVE_COMMS: "weakref.WeakSet[MPIComm]" = weakref.WeakSet()


class MPIComm(Comm):
    """Run ranks as real MPI processes; report measured ``MPI.Wtime``.

    Construct on MPI rank 0 only, with every other rank serving in
    :func:`worker_loop` (use :func:`spmd_main` or ``python -m
    repro.runtime.mpi_main``).  ``nranks`` may be any value up to the real
    communicator size — surplus ranks idle — but never above it: MPI
    cannot invent processes after launch, so measured rank counts are
    capped at the communicator size (see
    :func:`~repro.runtime.comm.backend_max_ranks`).

    Parameters
    ----------
    nranks:
        Number of participating ranks (the paper's ``p``),
        ``<= mpiexec -n``.
    machine:
        Accepted for constructor parity with the other backends; kept for
        reference but never charged — the ledger is measured.
    topology:
        Accepted for parity and validated against ``nranks``; real
        hardware provides its own hierarchy.
    """

    kind = "mpi"
    measured = True
    persistent_state = False

    def __init__(
        self,
        nranks: int,
        machine: MachineModel | None = None,
        topology: MachineTopology | None = None,
    ) -> None:
        super().__init__(nranks)
        self.machine = machine or SUPERMUC_LIKE
        if topology is not None and topology.total != self.nranks:
            raise ValueError(
                f"topology has {topology.total} leaves but communicator has {self.nranks} ranks"
            )
        self.topology = topology
        self._world = MPI.COMM_WORLD
        self._size = self._world.Get_size()
        if self._world.Get_rank() != 0:
            raise RuntimeError(
                "MPIComm must be constructed on MPI rank 0; ranks > 0 serve "
                "supersteps from repro.runtime.mpicomm.worker_loop().  Launch "
                "SPMD programs via `mpiexec -n <p> python -m "
                "repro.runtime.mpi_main ...` or wrap the driver in "
                "repro.runtime.mpicomm.spmd_main()."
            )
        if nranks > self._size:
            raise RuntimeError(
                f"backend 'mpi' was asked for {nranks} ranks but the MPI "
                f"communicator has {self._size} process(es); launch with "
                f"`mpiexec -n {nranks} python -m repro.runtime.mpi_main ...`"
            )
        if _STOPPED and self._size > 1:
            raise RuntimeError(
                "the MPI worker loops have already been stopped (the SPMD "
                "driver finished); communicators cannot be created afterwards"
            )
        self._handles: set[int] = set()
        self._closed = False
        _LIVE_COMMS.add(self)

    @classmethod
    def max_ranks(cls) -> int | None:
        return MPI.COMM_WORLD.Get_size()

    # -- local compute -------------------------------------------------------

    def run_local(self, fn: Callable[[int], object]) -> list:
        """Broadcast ``fn``, run every rank concurrently, gather the results.

        Rank 0 executes in the driver process itself (on the driver's
        authoritative shared copies); the closure is frozen *before* the
        broadcast so an invalid capture (e.g. the communicator) raises
        without desynchronising the workers.  Exceptions on any rank
        re-raise in the driver with the rank's traceback after the gather
        completes, so the worker loops stay usable.
        """
        self._ensure_open()
        # freeze + pickle before the collective: a bad capture raises without
        # desynchronising the workers (freeze always runs so the capture
        # check is uniform), and idle ranks never unpickle the blob
        frozen = freeze_function(fn)
        blob = pickle.dumps(frozen) if self._size > 1 else None
        wall_start = MPI.Wtime()
        if self._size > 1:
            self._world.bcast(("run", self.nranks, blob), root=0)
        start = MPI.Wtime()
        try:
            own = ("ok", fn(0), MPI.Wtime() - start)
        except BaseException:
            own = ("err", traceback.format_exc())
        # rank 0's value stays in-process (never pickled): contribute None to
        # the gather and splice the local reply in afterwards
        replies = self._world.gather(None, root=0) if self._size > 1 else [None]
        replies[0] = own
        results: list = []
        worst = 0.0
        failure: tuple[int, str] | None = None
        for rank in range(self.nranks):
            reply = replies[rank]
            if reply is None:
                failure = failure or (rank, "no reply (rank not in worker_loop?)")
            elif reply[0] == "err":
                failure = failure or (rank, reply[1])
            else:
                results.append(reply[1])
                worst = max(worst, reply[2])
        if failure is not None:
            raise RuntimeError(f"rank {failure[0]} raised during run_local:\n{failure[1]}")
        wall = MPI.Wtime() - wall_start
        self.ledger.charge_compute(worst, self._stage)
        self.ledger.charge_comm(max(0.0, wall - worst), "dispatch", self._stage)
        self.ledger.supersteps += 1
        return results

    # -- collectives ---------------------------------------------------------

    def allreduce(self, per_rank: Sequence[np.ndarray]) -> np.ndarray:
        self._check_ranks(per_rank)
        start = MPI.Wtime()
        out = combine_allreduce(per_rank)
        self.ledger.charge_comm(MPI.Wtime() - start, "allreduce", self._stage)
        return out

    def allgather(self, per_rank: Sequence[np.ndarray]) -> np.ndarray:
        self._check_ranks(per_rank)
        start = MPI.Wtime()
        out, _ = combine_allgather(per_rank)
        self.ledger.charge_comm(MPI.Wtime() - start, "allgather", self._stage)
        return out

    def alltoallv(self, send: Sequence[Sequence[np.ndarray]]) -> list[np.ndarray]:
        self._check_ranks(send)
        start = MPI.Wtime()
        recv, _ = combine_alltoallv(send, self.nranks)
        self.ledger.charge_comm(MPI.Wtime() - start, "alltoallv", self._stage)
        return recv

    def broadcast(self, value: np.ndarray) -> np.ndarray:
        # the value already lives in the driver and travels inside the next
        # superstep's closure, exactly like the process backend
        arr = np.asarray(value)
        self.ledger.charge_comm(0.0, "broadcast", self._stage)
        return arr

    # -- rank-resident data + lifecycle --------------------------------------

    def share(self, array: np.ndarray) -> np.ndarray:
        """Broadcast ``array`` once; every rank keeps a resident copy.

        The returned :class:`MPIShared` pickles as a ~50-byte handle inside
        shipped closures; each rank resolves it to its own copy and may
        mutate it in place across supersteps.  Read worker-side mutations
        back through :meth:`collect` — the driver copy only tracks rank 0.
        """
        self._ensure_open()
        arr = np.ascontiguousarray(array)
        if arr.nbytes == 0:
            return arr
        handle = _next_handle()
        if self._size > 1:
            # the raw ndarray goes over the wire (by value); registering the
            # driver's proxy afterwards keeps this broadcast handle-free
            self._world.bcast(("share", self.nranks, handle, arr), root=0)
        shared = _store_shared(handle, arr)
        self._handles.add(handle)
        return shared

    def collect(self, per_rank: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Fetch each rank's authoritative copy of its shared array."""
        self._check_ranks(per_rank)
        self._ensure_open()
        handles = [self._owned_handle(arr) for arr in per_rank]
        if self._size == 1 or all(h is None for h in handles[1:]):
            return list(per_rank)
        start = MPI.Wtime()
        self._world.bcast(("collect", self.nranks, handles), root=0)
        replies = self._world.gather(None, root=0)
        out: list[np.ndarray] = []
        for rank in range(self.nranks):
            if rank == 0 or handles[rank] is None:
                out.append(np.asarray(per_rank[rank]))
            else:
                reply = replies[rank]
                if reply is None or reply[0] != "ok":
                    detail = "no reply" if reply is None else reply[1]
                    raise RuntimeError(f"collect failed on rank {rank}: {detail}")
                out.append(reply[1])
        self.ledger.charge_comm(MPI.Wtime() - start, "collect", self._stage)
        return out

    def release(self, *arrays: np.ndarray) -> None:
        """Drop the resident copies of ``arrays`` on every rank.

        A no-op on a closed communicator (close already released
        everything), so cleanup paths may call it unconditionally.
        """
        if self._closed:
            return
        handles = [h for h in (self._owned_handle(arr) for arr in arrays) if h is not None]
        if not handles:
            return
        if self._size > 1 and not _STOPPED:
            self._world.bcast(("release", handles), root=0)
        for handle in handles:
            self._handles.discard(handle)
            _STORE.pop(handle, None)

    def close(self) -> None:
        """Release every shared array of this communicator.  Idempotent.

        Does *not* end the worker loops — they are program-scoped and shut
        down by :func:`stop_workers` / :func:`spmd_main`, so a program may
        open and close many communicators (the p ∈ {1, 2, 4} equivalence
        sweep) against one ``mpiexec`` launch.
        """
        if self._closed:
            return
        handles = sorted(self._handles)
        if handles and self._size > 1 and not _STOPPED:
            self._world.bcast(("release", handles), root=0)
        for handle in handles:
            _STORE.pop(handle, None)
        self._handles.clear()
        self._closed = True
        _LIVE_COMMS.discard(self)

    def _owned_handle(self, arr) -> int | None:
        handle = getattr(arr, "_handle", None)
        return handle if handle in self._handles else None

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("MPIComm is closed")


register_backend("mpi", MPIComm)
if is_driver():
    atexit.register(stop_workers)
