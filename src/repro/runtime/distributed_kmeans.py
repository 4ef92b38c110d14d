"""Distributed Geographer: balanced k-means over the SPMD runtime.

Mirrors the paper's parallelisation exactly (§4.1, Algorithms 1-2):

- points start block-distributed over ``p`` ranks;
- every rank computes Hilbert indices of its local points (global box);
- a distributed sort + equalising redistribution gives each rank a
  contiguous, spatially compact chunk (stage "redistribute");
- initial centers sit at positions ``i*n/k + n/(2k)`` of the *global* sorted
  order — ranks owning those positions contribute them via one allgather;
- each balance iteration performs rank-local assignment sweeps (with the
  same Hamerly bounds / box pruning kernels as the serial code) followed by
  one ``k``-float allreduce of block weights — the *only* communication in
  Algorithm 1 (line 31);
- each movement iteration adds one ``k x (d+1)`` allreduce for the weighted
  center sums (Algorithm 2, line 13).

The algorithm is written once, in :func:`_kmeans_loop`, against the
:class:`~repro.runtime.comm.Comm` protocol plus a small per-rank *storage*
seam that decides where the large rank-local state — points, weights,
assignments, Hamerly bounds, sample subsets — lives.  Rank functions return
only the small per-superstep products (block weights, partial sums) and
mutate the large state in place.  Two storages implement the seam:

- :class:`SharedStorage` (this module): :meth:`~repro.runtime.comm.Comm.share`
  arrays, so the same code runs on every execution backend and each
  superstep ships only kilobytes of handles and centers.  On the default
  ``"virtual"`` backend ranks execute in-process and the ledger holds the
  machine-model wall-clock used by the scaling figures; on the
  ``"process"`` backend each rank is a real worker process mutating the
  shared segments, and on the ``"mpi"`` backend each rank is a real MPI
  process mutating its rank-resident copies (driver-side reads of mutated
  state go through :meth:`~repro.runtime.comm.Comm.collect`); measured
  backends hold measured wall-clock per stage.
- :class:`~repro.runtime.ondisk.SpillStorage`: per-rank spill files,
  memory-mapped only inside a rank turn — the out-of-core runner
  (:func:`~repro.runtime.ondisk.ondisk_distributed_kmeans`).

The serial entry point :func:`~repro.core.balanced_kmeans.balanced_kmeans`
is this loop on one virtual rank (``SharedStorage`` over a one-rank
:class:`~repro.runtime.comm.VirtualComm`, i.e. plain driver arrays), so
serial equals ``nranks=1`` bit for bit and a serial checkpoint is a
one-shard checkpoint.

Results are bit-identical across backends and storages (tested).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.assign import AssignStats, assign_points, center_partial_sums, diameter_partial_sums
from repro.core.bounds import init_bounds, relax_for_influence, relax_for_movement
from repro.core.config import BalancedKMeansConfig
from repro.core.influence import adapt_influence, erode_influence
from repro.core.kernels import SweepWorkspace
from repro.core.result import IterationStats
from repro.core.sampling import doubling_sizes
from repro.core.seeding import seed_positions
from repro.runtime.checkpoint import (
    CheckpointMismatchError,
    CheckpointStore,
    data_digest,
    load_resume,
    restore_rng,
    rng_state,
    validate_meta,
)
from repro.runtime.comm import Comm, CostLedger, ShardGrid, make_comm
from repro.runtime.costmodel import MachineModel, MachineTopology
from repro.runtime.distsort import distributed_sort
from repro.sfc.curves import DEFAULT_BITS, sfc_index
from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.timers import StageTimer
from repro.util.validation import check_k, check_points, check_weights

__all__ = ["DistributedKMeansResult", "distributed_balanced_kmeans"]

#: ``kind`` tag in checkpoint metadata (rejects resuming the wrong algorithm).
CHECKPOINT_KIND = "distributed-kmeans"


@dataclass
class DistributedKMeansResult:
    """Partition plus execution diagnostics.

    ``ledger`` holds modeled seconds on the virtual backend and measured
    wall-clock on process backends (``measured`` records which).
    """

    assignment: np.ndarray  # in the caller's original point order
    centers: np.ndarray
    influence: np.ndarray
    iterations: int
    converged: bool
    imbalance: float
    nranks: int
    ledger: CostLedger = field(default_factory=CostLedger)
    backend: str = "virtual"
    measured: bool = False
    #: final global per-block weights (the k-vector behind ``imbalance``);
    #: exposed so the out-of-core path's bit-identity can be asserted on it
    block_weights: np.ndarray | None = None

    @property
    def simulated_seconds(self) -> float:
        return self.ledger.total_seconds

    def stage_fractions(self) -> dict[str, float]:
        """Share of ledger time per stage (the §5.3.2 component split)."""
        total = self.ledger.total_seconds
        if total <= 0:
            return {}
        return {k: v / total for k, v in sorted(self.ledger.stages.items())}


class SharedStorage:
    """Rank state in :meth:`~repro.runtime.comm.Comm.share` segments.

    The in-memory implementation of the storage seam :func:`_kmeans_loop`
    is written against (:class:`~repro.runtime.ondisk.SpillStorage` is the
    out-of-core one).  A *ref* is whatever ``put`` returns:

    - ``put(name, r, array)`` places rank ``r``'s state where its rank
      functions can read and mutate it;
    - ``stash(name, r, array)`` keeps per-rank data only the driver reads;
    - ``view(ref)`` gives the driver read access to state ranks never
      mutate (points, weights, stashes, sample subsets);
    - ``local(fn, read, write)`` makes the rank function
      ``r -> fn(r, *arrays)`` over rank ``r``'s entries of the ``read`` and
      then the ``write`` ref lists;
    - ``collect(refs)`` returns rank-authoritative values of mutated state
      for the driver (checkpoints);
    - ``gather(values, ids, n)`` scatters per-rank values back to the
      original point order;
    - ``release(*refs)`` frees state early, ``close()`` frees the rest.

    ``persistent_state`` says whether ranks may keep sweep workspaces
    between supersteps.
    """

    def __init__(self, comm: Comm) -> None:
        self.comm = comm
        self.persistent_state = comm.persistent_state
        self._live: list[np.ndarray] = []

    def put(self, name: str, r: int, array: np.ndarray) -> np.ndarray:
        shared = self.comm.share(array)
        self._live.append(shared)
        return shared

    @staticmethod
    def stash(name: str, r: int, array: np.ndarray) -> np.ndarray:
        return array

    @staticmethod
    def view(ref: np.ndarray) -> np.ndarray:
        return ref

    @staticmethod
    def local(fn, read=(), write=()):
        fields = (*read, *write)
        return lambda r: fn(r, *(f[r] for f in fields))

    def collect(self, refs: list[np.ndarray]) -> list[np.ndarray]:
        return self.comm.collect(refs)

    def gather(self, values: list[np.ndarray], ids: list[np.ndarray], n: int) -> np.ndarray:
        # collect() returns each rank's authoritative copy: the driver's own
        # view on driver-visible backends, the rank-resident copy over the
        # wire on MPI
        out = np.empty(n, dtype=np.int64)
        for r, chunk in enumerate(self.comm.collect(values)):
            out[ids[r]] = chunk
        return out

    def release(self, *refs: np.ndarray) -> None:
        gone = {id(ref) for ref in refs}
        self._live = [ref for ref in self._live if id(ref) not in gone]
        self.comm.release(*refs)

    def close(self) -> None:
        self.comm.release(*self._live)
        self._live = []


@dataclass
class _Checkpoints:
    """Checkpoint/resume settings of one run."""

    store: CheckpointStore | None
    every: int
    meta: dict  # metadata shared by every save of the run
    resume: tuple | None  # (arrays, meta) of the checkpoint to resume from
    fault_plan: object  # the comm's FaultPlan (corrupt: specs hit saves), if any


@contextmanager
def _run_context(nranks, comm, backend, machine, topology, *, cfg, rng, n, k, kind,
                 input_digest, checkpoint, checkpoint_every, resume_from, provenance):
    """Set-up shared by the in-memory and out-of-core runners.

    Validates the rank count and the checkpoint arguments, loads and
    validates the resume point, and opens the communicator.  Yields
    ``(grid, gen, checkpoints)``.  A comm created here is closed on exit,
    even on error; a reused comm gets its stage label restored.
    """
    if nranks > n:
        raise ValueError(f"nranks={nranks} exceeds the number of points n={n}")
    gen = ensure_rng(rng)
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    store = CheckpointStore.ensure(checkpoint)
    resume = None
    if resume_from is not None:
        arrays, meta = load_resume(resume_from)
        validate_meta(meta, kind=kind, config_digest=cfg.digest(), input_digest=input_digest,
                      checks=[("n", n), ("k", k)])
        gen = restore_rng(meta["rng_state"])
        resume = (arrays, meta)
        if provenance is None:
            provenance = meta.get("provenance")
    if machine is None and topology is not None:
        machine = topology.machine_model()
    owns_comm = comm is None
    if comm is None:
        comm = make_comm(nranks, backend=backend, machine=machine, topology=topology)
    elif comm.nranks != nranks:
        raise ValueError(f"comm has {comm.nranks} ranks but nranks={nranks}")
    prev_stage = comm._stage
    try:
        # The logical shard count is fixed at the run's first launch and
        # recorded in every checkpoint: a resume on a different physical rank
        # count keeps computing over the *same* S shards (ShardGrid maps them
        # onto whatever workers exist), so block splits, the distributed
        # sort, and every floating-point reduction order are preserved
        # bit-for-bit.
        nshards = int(resume[1]["nshards"]) if resume is not None else comm.nranks
        meta = {
            "kind": kind,
            "config_digest": cfg.digest(),
            "data_digest": input_digest,
            "n": n,
            "k": k,
            "nshards": nshards,
            "checkpoint_every": checkpoint_every,
            "provenance": provenance,
        }
        ckpt = _Checkpoints(store, checkpoint_every, meta, resume, getattr(comm, "fault_plan", None))
        yield ShardGrid(comm, nshards), gen, ckpt
    finally:
        if owns_comm:
            comm.close()
        else:  # leave a reused communicator the way we found it
            comm.set_stage(prev_stage)


def _check_sfc_seeding(cfg: BalancedKMeansConfig) -> None:
    """Distributed runs seed from the global SFC order; other seedings are serial-only."""
    if cfg.seeding != "sfc":
        raise ValueError(
            f"distributed runs support seeding='sfc' only, got seeding={cfg.seeding!r}; "
            "random and k-means++ seeding are a serial ablation (balanced_kmeans)"
        )


def _split_blocks(n: int, p: int) -> list[np.ndarray]:
    """Initial block distribution: rank r owns indices [r*n/p, (r+1)*n/p)."""
    bounds = (np.arange(p + 1) * n) // p
    return [np.arange(bounds[r], bounds[r + 1], dtype=np.int64) for r in range(p)]


def _relax_influence_local(ub, lb, assignment, old_influence, new_influence, workspace) -> None:
    """Rank-local influence relaxation.

    Module-level so the rank closure ships cleanly to worker processes.  A
    rank's persistent workspace (driver-resident backends only — worker
    ranks rebuild ephemeral workspaces and pass ``None``) relaxes per static
    block; everything else takes the cluster-exact form.
    """
    if workspace is not None and workspace.queue_relax_influence(
        assignment, ub, lb, old_influence, new_influence
    ):
        return
    relax_for_influence(ub, lb, assignment, old_influence, new_influence)


def _relax_movement_local(ub, lb, assignment, deltas, influence, workspace) -> None:
    """Rank-local movement relaxation (see :func:`_relax_influence_local`)."""
    if workspace is not None and workspace.queue_relax_movement(assignment, ub, lb, deltas, influence):
        return
    relax_for_movement(ub, lb, assignment, deltas, influence)


def _apply_relaxations(steps, ub, lb, assignment, workspace) -> None:
    """Apply pending bounds relaxations ``(fn, args)`` to one rank, in order."""
    for fn, args in steps:
        fn(ub, lb, assignment, *args, workspace)


def _fresh_state(storage, prefix: str, sizes) -> tuple[list, list, list]:
    """Zero assignments and fresh Hamerly bounds (Algorithm 2, line 9) per rank."""
    assignment, ub, lb = [], [], []
    for r, size in enumerate(sizes):
        upper, lower = init_bounds(int(size))
        assignment.append(storage.put(f"{prefix}a", r, np.zeros(int(size), dtype=np.int64)))
        ub.append(storage.put(f"{prefix}ub", r, upper))
        lb.append(storage.put(f"{prefix}lb", r, lower))
    return assignment, ub, lb


def _save_checkpoint(comm, storage, ckpt: _Checkpoints, iteration: int, gen: np.random.Generator,
                     centers, influence, targets, block_w, history, assignment, ub, lb) -> None:
    """Snapshot the loop state at an iteration boundary (atomic npz).

    Per-shard assignment and Hamerly bounds are read through
    ``storage.collect`` (rank-authoritative, so this is correct on MPI too;
    spill storage hands over lazy handles the store materialises one at a
    time).  The loop applies the iteration's pending bounds relaxations in
    one superstep before calling this, so the collected (ub, lb) are exactly
    the values an uninterrupted run's next sweep assigns with, after applying
    the same relaxations at the start of its turn — which is what makes
    resume bit-identical.
    """
    comm.set_stage("checkpoint")
    arrays = {
        "centers": np.asarray(centers, dtype=np.float64),
        "influence": np.asarray(influence, dtype=np.float64),
        "targets": np.asarray(targets, dtype=np.float64),
        "block_w": np.asarray(block_w, dtype=np.float64),
    }
    chunks = zip(storage.collect(assignment), storage.collect(ub), storage.collect(lb))
    for s, (a, upper, lower) in enumerate(chunks):
        arrays[f"assign_{s:04d}"] = a
        arrays[f"ub_{s:04d}"] = upper
        arrays[f"lb_{s:04d}"] = lower
    meta = dict(ckpt.meta)
    meta["iteration"] = int(iteration)
    meta["rng_state"] = rng_state(gen)
    meta["history"] = [asdict(stats) for stats in history]
    ckpt.store.save(arrays, meta, faults=ckpt.fault_plan)


def _relocate_empty_blocks(comm: Comm, storage, local_pts: list, local_w: list, assignment: list,
                           centers: np.ndarray, influence: np.ndarray, block_w: np.ndarray,
                           gen: np.random.Generator) -> bool:
    """Relocate the centers of empty blocks into the heaviest block.

    Rare with SFC seeding, but random seeding on heterogeneous densities can
    produce empties; each moves to the point farthest from the heaviest
    block's center.  ``block_w`` is updated between relocations and chosen
    points are excluded from later picks, so simultaneous empties land on
    *distinct* points; a heaviest block with at most one eligible point
    yields a random point (global SFC-order index drawn from ``gen``).

    One superstep plus an allgather of one candidate row per rank and
    relocation; ties go to the lowest rank, i.e. the lowest global index, so
    every rank count picks the points one rank picks.  Mutates ``centers``,
    ``influence`` and ``block_w``; returns True if any block was empty (the
    caller must then reset the runner-up bounds).
    """
    empty = np.flatnonzero(block_w <= 0.0)
    if empty.size == 0:
        return False
    counts = np.array([lp.shape[0] for lp in local_pts], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    dim = centers.shape[1]
    taken: list[int] = []
    for c in empty:
        heaviest = int(np.argmax(block_w))
        center = centers[heaviest].copy()
        excluded = np.array(taken, dtype=np.int64)

        def farthest(r: int, pts, w, a) -> np.ndarray:
            # [eligible members, squared distance, global index, weight, coordinates]
            members = np.flatnonzero(np.asarray(a) == heaviest)
            members = members[~np.isin(members + offsets[r], excluded)]
            row = np.zeros(dim + 4)
            row[0] = members.size
            if members.size:
                diffs = pts[members] - center
                sq = np.einsum("ij,ij->i", diffs, diffs)
                best = int(np.argmax(sq))
                far = int(members[best])
                row[1:4] = sq[best], offsets[r] + far, w[far]
                row[4:] = pts[far]
            return row

        rows = comm.allgather(comm.run_local(storage.local(
            farthest, read=(local_pts, local_w, assignment)))).reshape(-1, dim + 4)
        if rows[:, 0].sum() <= 1:
            far = int(gen.integers(int(counts.sum())))
            r = int(np.searchsorted(offsets, far, side="right")) - 1
            centers[c] = storage.view(local_pts[r])[far - offsets[r]]
            block_w[c] = 0.0  # refilled by the next sweep
        else:
            candidates = rows[rows[:, 0] > 0]
            best = candidates[int(np.argmax(candidates[:, 1]))]
            far = int(best[2])
            centers[c] = best[4:]
            block_w[heaviest] -= best[3]
            block_w[c] = best[3]  # the stolen point seeds the new block
        taken.append(far)
        influence[c] = 1.0
    return True


def distributed_balanced_kmeans(
    points: np.ndarray,
    k: int,
    nranks: int,
    weights: np.ndarray | None = None,
    config: BalancedKMeansConfig | None = None,
    machine: MachineModel | None = None,
    rng: int | np.random.Generator | None = None,
    centers: np.ndarray | None = None,
    topology: MachineTopology | None = None,
    backend: str | None = None,
    comm: Comm | None = None,
    checkpoint: CheckpointStore | str | None = None,
    checkpoint_every: int = 1,
    resume_from: CheckpointStore | str | None = None,
    provenance: dict | None = None,
) -> DistributedKMeansResult:
    """Run Geographer on ``nranks`` SPMD processes (virtual or real).

    ``points`` is the global point set; it is dealt out block-wise to the
    ranks (as if read from a partitioned file), then redistributed by
    Hilbert index exactly as the paper describes.

    ``centers`` warm-starts the run (repartitioning): SFC seeding's allgather
    and the sampled initialisation rounds are skipped, exactly as in the
    serial :func:`~repro.core.balanced_kmeans.balanced_kmeans` path.
    Distributed runs seed from the SFC order only; ``config.seeding`` must be
    ``"sfc"`` (random and k-means++ seeding are a serial ablation).

    ``topology`` attaches a machine hierarchy so every allreduce is costed as
    staged per-level reductions (cores → nodes → islands) instead of one flat
    tree; ``topology.total`` must equal ``nranks``.

    ``backend`` selects the execution backend (``"virtual"`` | ``"process"``
    | ``"mpi"``; default: the ``REPRO_BACKEND`` env var, then ``"virtual"``;
    ``"mpi"`` requires an SPMD launch, see :mod:`repro.runtime.mpi_main`).
    Pass an existing communicator via ``comm`` instead to reuse its workers and read
    its ledger afterwards; a comm this function creates is always closed
    before returning, even on error, and a reused comm gets every segment
    this run shared released and its stage label restored.

    ``checkpoint`` (a :class:`~repro.runtime.checkpoint.CheckpointStore` or a
    directory path) snapshots the full algorithm state every
    ``checkpoint_every`` iterations; ``resume_from`` (a store, directory, or
    checkpoint file) restarts from such a snapshot and is **bit-identical**
    to the uninterrupted run — including on a different ``nranks``: the run's
    original rank count becomes the fixed logical shard grid
    (:class:`~repro.runtime.comm.ShardGrid`), so re-sharding never changes
    any floating-point reduction order.  The checkpoint is validated against
    the configuration and input data (loud
    :class:`~repro.runtime.checkpoint.CheckpointMismatchError` on any
    mismatch).  ``provenance`` is an optional JSON-serialisable dict stored
    in checkpoint metadata so the CLI can rebuild the dataset on ``resume``.

    ``points`` may also be a :class:`~repro.io.sharded.ShardedDataset`
    (weights then come from the dataset): the call delegates to
    :func:`~repro.runtime.ondisk.ondisk_distributed_kmeans`, which runs this
    same sort and loop with the rank state in spill files instead of shared
    segments — bit-identical on fitting data — and returns an
    :class:`~repro.runtime.ondisk.OndiskKMeansResult`.
    """
    from repro.io.sharded import ShardedDataset  # runtime<->io import cycle guard

    if isinstance(points, ShardedDataset):
        if weights is not None:
            raise ValueError("a ShardedDataset carries its own weights; pass weights=None")
        from repro.runtime.ondisk import ondisk_distributed_kmeans

        return ondisk_distributed_kmeans(
            points, k, nranks, config=config, machine=machine, rng=rng,
            centers=centers, topology=topology, backend=backend, comm=comm,
            checkpoint=checkpoint, checkpoint_every=checkpoint_every,
            resume_from=resume_from, provenance=provenance,
        )
    cfg = config or BalancedKMeansConfig()
    _check_sfc_seeding(cfg)
    pts = check_points(points)
    n = pts.shape[0]
    k = check_k(k, n)
    w = check_weights(weights, n)
    with _run_context(nranks, comm, backend, machine, topology, cfg=cfg, rng=rng, n=n, k=k,
                      kind=CHECKPOINT_KIND, input_digest=data_digest(pts, w, extra=f"n={n},k={k}"),
                      checkpoint=checkpoint, checkpoint_every=checkpoint_every,
                      resume_from=resume_from, provenance=provenance) as (grid, gen, ckpt):
        storage = SharedStorage(grid)
        try:
            local_pts, local_w, local_ids, glo, ghi = _redistribute(grid, storage, pts, w, cfg)
            result, _ = _kmeans_loop(grid, storage, local_pts, local_w, local_ids, glo, ghi,
                                     k, cfg, gen, centers, ckpt)
            return result
        finally:
            # a reused communicator gets this run's segments back immediately;
            # on an owned comm close() covers the error paths as well
            storage.close()


def _redistribute(comm: Comm, storage: SharedStorage, pts: np.ndarray, w: np.ndarray,
                  cfg: BalancedKMeansConfig):
    """Deal the points out block-wise, Hilbert-index them, sort them over the ranks.

    Returns the per-rank SFC-sorted points, weights and original ids plus
    the global bounding box.
    """
    p = comm.nranks
    n, dim = pts.shape
    bits = cfg.sfc_bits or DEFAULT_BITS[dim]

    # -- initial block distribution (payload: coords | weight | original id)
    payload = [storage.put("payload", r, np.column_stack([pts[ix], w[ix], ix.astype(np.float64)]))
               for r, ix in enumerate(_split_blocks(n, p))]

    # -- global bounding box: local boxes + tiny allgather ------------------
    comm.set_stage("sfc_index")
    local_boxes = comm.run_local(lambda r: np.concatenate([payload[r][:, :dim].min(axis=0),
                                                           payload[r][:, :dim].max(axis=0)]))
    boxes = comm.allgather(local_boxes).reshape(p, 2 * dim)
    glo = boxes[:, :dim].min(axis=0)
    ghi = boxes[:, dim:].max(axis=0)

    # -- Hilbert indices (rank-local, measured) ------------------------------
    keys = comm.run_local(
        lambda r: sfc_index(payload[r][:, :dim], curve=cfg.sfc_curve, bits=bits, box=(glo, ghi))
    )

    # -- distributed sort + equalising redistribution ------------------------
    comm.set_stage("redistribute")
    _, sorted_payload = distributed_sort(comm, keys, payload)
    # the pre-sort payload segments are released immediately so only one
    # shared copy of the data remains
    local_pts = [storage.put("pts", r, np.ascontiguousarray(sp[:, :dim]))
                 for r, sp in enumerate(sorted_payload)]
    local_w = [storage.put("w", r, np.ascontiguousarray(sp[:, dim]))
               for r, sp in enumerate(sorted_payload)]
    local_ids = [sp[:, dim + 1].astype(np.int64) for sp in sorted_payload]
    storage.release(*payload)
    return local_pts, local_w, local_ids, glo, ghi


def _kmeans_loop(
    comm: Comm,
    storage,
    local_pts: list,
    local_w: list,
    local_ids: list,
    glo: np.ndarray,
    ghi: np.ndarray,
    k: int,
    cfg: BalancedKMeansConfig,
    gen: np.random.Generator,
    centers: np.ndarray | None,
    ckpt: _Checkpoints,
    targets: np.ndarray | None = None,
    seeds: np.ndarray | None = None,
    workspace: SweepWorkspace | None = None,
    history: list[IterationStats] | None = None,
    timers: StageTimer | None = None,
) -> tuple[DistributedKMeansResult, list]:
    """Algorithms 1-2 over the ranks' SFC-sorted chunks, on any storage.

    ``local_pts``/``local_w`` are refs of ``storage`` (see
    :class:`SharedStorage`), ``local_ids`` whatever its ``gather`` takes.
    ``centers`` warm-starts the run (no seeding, no sampled rounds);
    ``seeds`` replace only the SFC seeding (the serial seeding ablation).
    ``targets`` default to equal shares of the total weight; ``workspace``
    is a warm sweep workspace for rank 0.  ``history`` receives one
    :class:`~repro.core.result.IterationStats` per round (skip and pruning
    fractions only from driver-resident ranks), ``timers`` the stage times.

    Returns the result, whose assignment ``storage.gather`` built, and the
    per-rank assignment refs.
    """
    p = comm.nranks
    counts = np.array([lp.shape[0] for lp in local_pts], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    n = int(counts.sum())
    dim = local_pts[0].shape[1]
    timers = StageTimer() if timers is None else timers
    history = [] if history is None else history

    # -- restore checkpointed state (skips seeding + sampled init) -----------
    resuming = ckpt.resume is not None
    if resuming:
        arrays, meta = ckpt.resume
        centers = np.array(arrays["centers"], dtype=np.float64, copy=True)
        history[:] = [IterationStats(**stats) for stats in meta["history"]]

    # -- initial centers: SFC seeding from the global sorted order -----------
    # (Algorithm 2, line 7) unless warm-started or seeded by the caller
    comm.set_stage("seeding")
    warm_start = centers is not None
    if warm_start:
        centers = np.array(centers, dtype=np.float64, copy=True)
        if centers.shape != (k, dim):
            raise ValueError(f"warm-start centers must have shape ({k}, {dim})")
        if not np.isfinite(centers).all():
            raise ValueError("warm-start centers must be finite")
    elif seeds is not None:
        centers = np.array(seeds, dtype=np.float64, copy=True)
    else:
        positions = seed_positions(n, k)

        def local_seeds(r: int, pts) -> np.ndarray:
            inside = (positions >= offsets[r]) & (positions < offsets[r] + counts[r])
            which = np.flatnonzero(inside)
            rows = positions[which] - offsets[r]
            return np.column_stack([which.astype(np.float64), pts[rows]])

        with timers.stage("seeding"):
            seeded = comm.allgather(comm.run_local(storage.local(local_seeds, read=(local_pts,))))
            seeded = seeded.reshape(-1, dim + 1)
            centers = np.empty((k, dim))
            centers[seeded[:, 0].astype(np.int64)] = seeded[:, 1:]

    influence = np.ones(k)
    total_w = float(comm.allreduce(comm.run_local(
        storage.local(lambda r, w: np.array([float(w.sum())]), read=(local_w,))))[0])
    if resuming:
        # the checkpoint carries the targets, so a run resumes exactly
        # whichever entry point (and summation order) launched it
        targets = np.array(arrays["targets"], dtype=np.float64, copy=True)
    elif targets is None:
        targets = np.full(k, total_w / k)
    extent = ghi - glo
    delta_threshold = cfg.delta_threshold_rel * float(np.linalg.norm(extent))

    # -- per-rank mutable state: mutated in place by rank functions ----------
    if resuming:
        influence = np.array(arrays["influence"], dtype=np.float64, copy=True)
        assignment, ub, lb = [], [], []
        for s in range(p):
            chunk = arrays[f"assign_{s:04d}"]
            if chunk.shape[0] != int(counts[s]):
                raise CheckpointMismatchError(
                    f"checkpoint shard {s} holds {chunk.shape[0]} points but the "
                    f"redistribution produced {int(counts[s])} — the checkpoint does "
                    "not belong to this dataset/configuration"
                )
            assignment.append(storage.put("a", s, np.ascontiguousarray(chunk, dtype=np.int64)))
            ub.append(storage.put("ub", s, np.ascontiguousarray(arrays[f"ub_{s:04d}"], dtype=np.float64)))
            lb.append(storage.put("lb", s, np.ascontiguousarray(arrays[f"lb_{s:04d}"], dtype=np.float64)))
    else:
        assignment, ub, lb = _fresh_state(storage, "", counts)
    # On resume the restored RNG state already reflects the first launch's
    # spawn/permutation draws, and the sampled init never re-runs — spawning
    # again would only advance the generator past its checkpointed state.
    rank_rngs = spawn_rngs(gen, p) if not resuming else None
    # rank-local kernel workspaces: when ranks run in the driver process
    # (persistent_state), one workspace per rank survives across every
    # sweep/iteration (point norms + static block boxes are sweep-invariant),
    # and rank 0 may take a caller's warm one.  Worker-process ranks and
    # spill storage rebuild an ephemeral workspace per sweep instead
    # (assign_points does this when given None) — bit-identical results, the
    # caches are exact — so the unpicklable workspace never crosses a pipe
    # and no O(n/p) cache outlives a spill turn.
    keep_state = storage.persistent_state
    if workspace is not None:
        if not (keep_state and workspace.matches(storage.view(local_pts[0]), cfg, k)):
            raise ValueError(
                "warm workspace does not match this run: it was built for a "
                "different (points, config, k) triple — build a fresh "
                "SweepWorkspace (or let the run build one) instead"
            )
    workspaces = [None] * p
    if keep_state:
        workspaces = [workspace if r == 0 and workspace is not None
                      else SweepWorkspace(local_pts[r], cfg, k) for r in range(p)]

    # -- sampled initialisation rounds (per rank, §4.5) -----------------------
    # (skipped on warm starts: the previous centers are already near-optimal;
    # each rank permutes with its own spawned generator)
    sample_sizes = doubling_sizes(int(counts.min()), cfg) if not warm_start else []
    sample_perms = [storage.stash("perm", r, rank_rngs[r].permutation(int(counts[r])))
                    for r in range(p)] if sample_sizes else []

    def balance(s_pts, s_w, s_assign, s_ub, s_lb, s_workspaces, s_targets, block_w0=None, pending=()):
        """Algorithm 1: sweeps, block-weight allreduce, influence adaptation.

        Returns ``(block weights, imbalance, balanced, balance iterations,
        sweep statistics)``.  With bounds on, the global block weights are
        maintained from the allreduced k-vector of per-rank assignment
        *deltas* (bit-identical across backends via the shared combine
        kernels) — one full bincount reduction seeds the phase unless
        ``block_w0`` carries the previous phase's weights in.  With bounds
        off (the §4.3 ablation) every iteration reduces a fresh bincount.

        Each balance iteration is one rank turn: the sweep first applies the
        ``pending`` bounds relaxations (the caller's for the first sweep,
        then the previous iteration's influence relaxation) and then
        assigns.  Nothing is pending when this returns.
        """
        nonlocal influence
        state = dict(read=(s_pts, s_w), write=(s_assign, s_ub, s_lb))
        stats = [None if ws is None else AssignStats() for ws in s_workspaces]
        block_w = np.array(block_w0, dtype=np.float64, copy=True) if (cfg.use_bounds and block_w0 is not None) else None
        balanced = False
        for bit in range(cfg.max_balance_iterations):
            comm.set_stage("kmeans")

            if block_w is not None:

                def sweep_delta(r: int, pts, w, a, upper, lower) -> np.ndarray:
                    _apply_relaxations(pending, upper, lower, a, s_workspaces[r])
                    delta = np.zeros(k)
                    assign_points(pts, centers, influence, a, upper, lower, cfg, stats[r],
                                  workspace=s_workspaces[r], weights=w, delta_out=delta)
                    return delta

                block_w = block_w + comm.allreduce(comm.run_local(storage.local(sweep_delta, **state)))
            else:

                def sweep(r: int, pts, w, a, upper, lower) -> np.ndarray:
                    _apply_relaxations(pending, upper, lower, a, s_workspaces[r])
                    assign_points(pts, centers, influence, a, upper, lower, cfg, stats[r],
                                  workspace=s_workspaces[r])
                    return np.bincount(a, weights=np.asarray(w), minlength=k)

                block_w = comm.allreduce(comm.run_local(storage.local(sweep, **state)))
            pending = ()
            imbalance = float((block_w / s_targets).max() - 1.0)
            if imbalance <= cfg.epsilon:
                balanced = True
                break
            if bit == cfg.max_balance_iterations - 1:
                break  # keep influence consistent with the final assignment
            old_influence = influence.copy()
            influence = adapt_influence(
                influence, block_w, s_targets, dim,
                cap=cfg.influence_change_cap, floor=cfg.influence_floor, ceil=cfg.influence_ceil,
            )
            if cfg.use_bounds:
                pending = [(_relax_influence_local, (old_influence, influence))]
            else:
                block_w = None  # force a fresh bincount reduction next iteration
        merged = AssignStats()
        for st in stats:
            if st is not None:
                merged.merge(st)
        return block_w, imbalance, balanced, bit + 1, merged

    def update_centers(s_pts, s_w, s_assign) -> tuple[np.ndarray, np.ndarray]:
        """New centers from one allreduce of k x (d+1) partial sums, plus their movement."""
        totals = comm.allreduce(comm.run_local(storage.local(
            lambda r, pts, w, a: center_partial_sums(pts, w, a, k), read=(s_pts, s_w, s_assign))))
        totals = totals.reshape(k, dim + 1)
        wsum = totals[:, dim]
        new_centers = np.where(wsum[:, None] > 0, totals[:, :dim] / np.maximum(wsum, 1e-300)[:, None], centers)
        return new_centers, np.linalg.norm(new_centers - centers, axis=1)

    def erode(s_pts, s_w, s_assign, new_centers, deltas) -> None:
        """Influence erosion (§4.2) with beta(C) = average cluster diameter.

        The diameter is 2 x the rms radius, from one extra k+k-float
        allreduce of partial sums per movement round.
        """
        nonlocal influence
        dsums = comm.allreduce(comm.run_local(storage.local(
            lambda r, pts, w, a: diameter_partial_sums(pts, w, a, new_centers),
            read=(s_pts, s_w, s_assign))))
        sq_sums, cnts = dsums[:k], dsums[k:]
        with np.errstate(invalid="ignore", divide="ignore"):
            diam = 2.0 * np.sqrt(np.where(cnts > 0, sq_sums / np.maximum(cnts, 1e-300), 0.0))
        positive = diam[diam > 0]
        beta = float(positive.mean()) if positive.size else 0.0
        influence = erode_influence(influence, deltas, beta,
                                    floor=cfg.influence_floor, ceil=cfg.influence_ceil)

    def record(deltas, imbalance, balance_iterations, stats, sample_size) -> None:
        history.append(IterationStats(
            iteration=len(history),
            max_delta=float(deltas.max()),
            imbalance=imbalance,
            balance_iterations=balance_iterations,
            skip_fraction=stats.skip_fraction,
            pruning_fraction=stats.pruning_fraction,
            sample_size=sample_size,
        ))

    with timers.stage("sampling"):
        for size in sample_sizes:
            sizes = [min(size, int(c)) for c in counts]
            s_pts, s_w = [], []
            for r in range(p):
                rows = np.array(storage.view(sample_perms[r])[: sizes[r]])
                s_pts.append(storage.put("s_pts", r, np.asarray(storage.view(local_pts[r]))[rows]))
                s_w.append(storage.put("s_w", r, np.asarray(storage.view(local_w[r]))[rows]))
            s_assign, s_ub, s_lb = _fresh_state(storage, "s_", sizes)
            frac = sum(float(storage.view(sw).sum()) for sw in s_w) / total_w
            s_workspaces = [SweepWorkspace(s_pts[r], cfg, k) if keep_state else None
                            for r in range(p)]
            _, imbalance, _, its, stats = balance(s_pts, s_w, s_assign, s_ub, s_lb, s_workspaces,
                                                  targets * frac)
            new_centers, deltas = update_centers(s_pts, s_w, s_assign)
            record(deltas, imbalance, its, stats, sum(sizes))
            if cfg.use_erosion:
                erode(s_pts, s_w, s_assign, new_centers, deltas)
            storage.release(*s_pts, *s_w, *s_assign, *s_ub, *s_lb)
            centers = new_centers
    storage.release(*sample_perms)

    converged = False
    iterations = 0
    final_imbalance = np.inf
    prev_block_w: np.ndarray | None = None
    start_it = 0
    if resuming:
        # Re-enter the loop exactly where the checkpoint was cut: iteration
        # counting, convergence bookkeeping, and (with bounds on) the
        # carried block weights all continue as if never interrupted.
        start_it = int(meta["iteration"])
        iterations = start_it
        block_w = np.array(arrays["block_w"], dtype=np.float64, copy=True)
        final_imbalance = float((block_w / targets).max() - 1.0)
        if cfg.use_bounds:
            prev_block_w = block_w
    # End-of-iteration relaxations run at the start of the next phase's first
    # sweep turn, or in one superstep before a due checkpoint.  A stopping
    # run drops them (ub and lb are in no result); any other drop would
    # leave bounds too tight for a later sweep.  balance() consumes them,
    # so nothing is pending when reset_lower runs.
    pending: list = []
    for it in range(start_it, cfg.max_iterations):
        iterations = it + 1
        with timers.stage("assign"):
            block_w, final_imbalance, balanced, its, stats = balance(
                local_pts, local_w, assignment, ub, lb, workspaces, targets, prev_block_w, pending)
        pending = []
        # assignments are untouched after the phase's last sweep, so its
        # block weights are the global ones; with bounds on the next phase
        # seeds from them instead of a full bincount reduction
        prev_block_w = block_w if cfg.use_bounds else None
        centers = centers.copy()  # relocation writes in place; sweeps cache centers by identity
        if _relocate_empty_blocks(comm, storage, local_pts, local_w, assignment,
                                  centers, influence, block_w, gen):
            # a relocated center may now be anyone's runner-up

            def reset_lower(r: int, lower) -> None:
                lower[:] = 0.0

            comm.run_local(storage.local(reset_lower, write=(lb,)))
            prev_block_w = None  # the relocation moved weight between the estimates
            continue
        with timers.stage("update"):
            new_centers, deltas = update_centers(local_pts, local_w, assignment)
        record(deltas, final_imbalance, its, stats, n)
        old_influence = influence.copy()
        if cfg.use_erosion:
            erode(local_pts, local_w, assignment, new_centers, deltas)
        if cfg.use_bounds:
            pending = [(_relax_influence_local, (old_influence, influence)),
                       (_relax_movement_local, (deltas, influence))]
        if deltas.max() < delta_threshold and balanced:
            converged = True
            break
        centers = new_centers
        if ckpt.store is not None and (it + 1) % ckpt.every == 0:
            if pending:  # the checkpoint stores relaxed bounds
                comm.run_local(storage.local(
                    lambda r, a, upper, lower: _apply_relaxations(pending, upper, lower, a, workspaces[r]),
                    read=(assignment,), write=(ub, lb)))
                pending = []
            _save_checkpoint(comm, storage, ckpt, it + 1, gen, centers, influence, targets,
                             block_w, history, assignment, ub, lb)

    result = DistributedKMeansResult(
        assignment=storage.gather(assignment, local_ids, n),
        centers=centers,
        influence=influence,
        iterations=iterations,
        converged=converged,
        imbalance=final_imbalance,
        nranks=p,
        ledger=comm.ledger,
        backend=comm.kind,
        measured=comm.measured,
        block_weights=np.array(block_w, dtype=np.float64, copy=True),
    )
    return result, assignment
