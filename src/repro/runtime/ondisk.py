"""Out-of-core distributed balanced k-means over a :class:`ShardedDataset`.

The out-of-core runner is not a second copy of the algorithm: it runs the
one sample sort (:func:`~repro.runtime.distsort.sample_sort`) and the one
Algorithm 2 driver loop of
:func:`~repro.runtime.distributed_kmeans.distributed_balanced_kmeans`, and
only changes where the O(n) state lives.  Both are written against small
storage seams, and this module holds their spill-file implementations:

- **Rank state** — :class:`SpillStorage`.  Per-rank points, weights, ids,
  assignments, Hamerly bounds, sample permutations and sample subsets are
  spill files (:mod:`repro.io.spill`) named ``{name}.{rank}``.  A rank
  function receives memory maps of its own O(n/p) files, opened for that
  rank turn only with one plain ``np.memmap`` each (the handle knows where
  the data starts) and never flushed: the page cache shows every write to
  the next turn, in any process, and a resume reads the fsynced
  checkpoint, never a spill file.  Ranks
  rebuild an ephemeral sweep workspace per sweep, exactly like
  worker-process ranks do on the process backend, so no O(n/p) cache
  outlives a turn.  The final assignment is scattered back to original
  order on disk (:func:`_scatter_to_original_order`).
- **Sort rows** — :class:`_SpillRows`.  The sort's rows are one spill file
  per field and rank; the sort's exchanges go through :func:`_exchange`, a
  file-mediated alltoallv (one npz piece per source and destination,
  regathered in source-rank order, charged to the machine model like
  :meth:`~repro.runtime.comm.Comm.alltoallv`).  Every sort decision stays
  in :mod:`repro.runtime.distsort`; nothing O(n) passes through the driver.
  :func:`repro.runtime.shuffle.shuffle_to_disk` routes its rows through the
  same exchange.

**Bit-identity.**  On a dataset that also fits in memory, this runner
produces bit-identical assignments, centers, and block weights to the
in-memory path at the same rank count (tested): the global bounding box
assembled from per-shard manifest boxes equals the in-memory elementwise
min/max exactly (min/max are exact and grouping-independent), the sort and
the loop are the same code over the same bytes, and the sweep kernels are
exact with or without a persistent workspace.

**Memory model.**  Peak driver (and per-worker) footprint is O(n/p) — one
rank's working set — never O(n).  The two O(n) artifacts (the final
original-order assignment and the shuffle remap) are written with seek-
based windowed I/O, never mapped wholly, because file-backed mappings
count toward ``RLIMIT_AS`` — the cap the CI memory gate enforces.

Checkpoint/resume uses the same atomic npz store and the same save path as
the in-memory runner; ``__meta__.data_digest`` records the dataset's
*manifest digest* (cheap to recompute, covers every shard byte), and the
per-shard state arrays are spilled/loaded one at a time so saving and
resuming stay O(n/p) as well.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BalancedKMeansConfig
from repro.io.sharded import ShardedDataset
from repro.io.spill import SpillHandle, SpillStore
from repro.runtime.checkpoint import CheckpointStore, load_resume_lazy
from repro.runtime.comm import Comm, CostLedger
from repro.runtime.costmodel import MachineModel, MachineTopology
from repro.runtime.distributed_kmeans import _check_sfc_seeding, _kmeans_loop, _run_context
from repro.runtime.distsort import sample_sort
from repro.sfc.curves import DEFAULT_BITS, sfc_index
from repro.util.validation import check_k

__all__ = ["OndiskKMeansResult", "ondisk_distributed_kmeans", "ONDISK_CHECKPOINT_KIND"]

#: ``kind`` tag in checkpoint metadata for out-of-core runs.
ONDISK_CHECKPOINT_KIND = "distributed-kmeans-ondisk"


@dataclass
class OndiskKMeansResult:
    """Out-of-core partition result: handles instead of O(n) arrays.

    ``assignment_handle`` points at the final assignment in the caller's
    original (global row) order; the :attr:`assignment` property
    materialises it — only do that when n fits in memory.  The per-shard
    state handles feed :func:`repro.runtime.shuffle.shuffle_to_disk`.
    """

    assignment_handle: SpillHandle
    centers: np.ndarray
    influence: np.ndarray
    iterations: int
    converged: bool
    imbalance: float
    nranks: int
    block_weights: np.ndarray | None = None
    ledger: CostLedger = field(default_factory=CostLedger)
    backend: str = "virtual"
    measured: bool = False
    spill_dir: str = ""
    shard_points: list[SpillHandle] = field(default_factory=list)
    shard_weights: list[SpillHandle] = field(default_factory=list)
    shard_ids: list[SpillHandle] = field(default_factory=list)
    shard_assignment: list[SpillHandle] = field(default_factory=list)

    @property
    def assignment(self) -> np.ndarray:
        """Materialised original-order assignment (O(n) memory — small runs only)."""
        return self.assignment_handle.read()

    @property
    def simulated_seconds(self) -> float:
        return self.ledger.total_seconds

    def stage_fractions(self) -> dict[str, float]:
        total = self.ledger.total_seconds
        if total <= 0:
            return {}
        return {k: v / total for k, v in sorted(self.ledger.stages.items())}


class SpillStorage:
    """Rank state in per-rank spill files: the out-of-core storage seam.

    Implements the members documented on
    :class:`~repro.runtime.distributed_kmeans.SharedStorage`; refs are
    :class:`SpillHandle` descriptors of files ``{name}.{rank}`` in one
    :class:`SpillStore`.  ``local`` maps a rank's files for the turn only
    (``read`` maps read-only, ``write`` maps read-write); ``view`` maps one
    file for the driver; ``collect`` hands out the handles themselves,
    which the checkpoint store materialises one at a time.  No map is
    flushed (see :mod:`repro.io.spill` for why none needs to be).
    ``persistent_state`` is false: ranks keep no sweep workspace between
    turns.
    """

    persistent_state = False

    def __init__(self, comm: Comm, store: SpillStore) -> None:
        self.comm = comm
        self.store = store

    def put(self, name: str, r: int, array: np.ndarray) -> SpillHandle:
        return self.store.put(f"{name}.{r}", array)

    stash = put

    @staticmethod
    def view(ref: SpillHandle) -> np.memmap:
        return ref.open("r")

    @staticmethod
    def local(fn, read=(), write=()):
        fields = (*read, *write)
        nread = len(read)

        def turn(r: int):
            return fn(r, *(f[r].open("r" if i < nread else "r+") for i, f in enumerate(fields)))

        return turn

    @staticmethod
    def collect(refs: list[SpillHandle]) -> list[SpillHandle]:
        return list(refs)

    def gather(self, values: list[SpillHandle], ids: list[SpillHandle], n: int) -> SpillHandle:
        self.comm.set_stage("gather")
        return _scatter_to_original_order(self.comm, self.store, values, ids, n)

    def release(self, *refs: SpillHandle) -> None:
        self.store.remove(*refs)


def _read_rows(fields: dict[str, list[SpillHandle]], r: int) -> dict[str, np.ndarray]:
    return {name: handles[r].read() for name, handles in fields.items()}


def _put_rows(store: SpillStore, r: int, arrays: dict[str, np.ndarray],
              order: np.ndarray | None = None) -> dict[str, SpillHandle]:
    """Write rank ``r``'s fields as ``{field}.{r}``, reordered by ``order`` if given."""
    return {name: store.put(f"{name}.{r}", arr if order is None else arr[order])
            for name, arr in arrays.items()}


def _transpose(per_rank: list[dict]) -> dict[str, list]:
    return {name: [entry[name] for entry in per_rank] for name in per_rank[0]}


class _SpillRows:
    """Rows of the out-of-core sort: one spill file ``{field}.{rank}`` per field.

    ``fields`` maps ``"keys"`` and the payload fields to per-rank handles.
    Every operation rewrites the files under the same names; the sort
    itself (:func:`~repro.runtime.distsort.sample_sort`) decides what to do.
    """

    def __init__(self, comm: Comm, store: SpillStore, fields: dict[str, list[SpillHandle]]) -> None:
        self.comm = comm
        self.store = store
        self.fields = fields

    def permute(self, order_of) -> None:
        store, fields = self.store, self.fields

        def turn(r: int) -> dict:
            arrays = _read_rows(fields, r)
            return _put_rows(store, r, arrays, order_of(arrays["keys"]))

        self.fields = _transpose(self.comm.run_local(turn))

    def map_keys(self, fn) -> list:
        keys = self.fields["keys"]
        return self.comm.run_local(lambda r: fn(keys[r].read()))

    def exchange(self, route_of, merge=None) -> np.ndarray:
        store = self.store

        def finish(r: int, arrays: dict) -> dict:
            return _put_rows(store, r, arrays, None if merge is None else merge(arrays["keys"]))

        self.fields = _transpose(_exchange(self.comm, store, "sort", self.fields,
                                           lambda r, arrays: route_of(r, arrays["keys"]), finish))
        return np.array([h.rows for h in self.fields["keys"]], dtype=np.int64)


def _charge_alltoallv(comm: Comm, store: SpillStore, tag: str, piece_rows: np.ndarray) -> None:
    """Charge the machine model for a file-mediated exchange (modeled backends).

    ``piece_rows[r, j]`` counts rows sent from rank r to rank j; bytes per
    row are estimated from the first non-empty piece file, and the cost is
    the same bottleneck-bytes formula :func:`combine_alltoallv` charges.
    Measured backends already captured the real I/O time in their supersteps.
    """
    machine = getattr(comm, "machine", None)
    if comm.measured or machine is None:
        return
    row_bytes = 1
    nonempty = np.argwhere(piece_rows > 0)
    if nonempty.size:
        r, j = nonempty[0]
        size = os.path.getsize(_piece_path(store, tag, int(r), int(j)))
        row_bytes = max(1, int(size // int(piece_rows[r, j])))
    off_diag = piece_rows * row_bytes
    np.fill_diagonal(off_diag, 0)
    max_bytes = int(max(off_diag.sum(axis=1).max(), off_diag.sum(axis=0).max(), 0))
    comm.ledger.charge_comm(machine.alltoallv(max_bytes, comm.nranks), "alltoallv", comm._stage)


def _piece_path(store: SpillStore, tag: str, src: int, dst: int) -> str:
    return os.path.join(store.directory, f"{tag}.{src}to{dst}.npz")


def _exchange(comm: Comm, store: SpillStore, tag: str, inputs: dict[str, list[SpillHandle]],
              route_of, finish) -> list:
    """File-mediated alltoallv over per-rank spill files.

    ``inputs`` maps field names to per-rank handles; ``route_of(r, arrays)``
    returns the destination rank of each row of rank ``r``.  Every rank
    writes one npz piece per destination; every receiver concatenates its
    pieces in source-rank order — exactly :func:`combine_alltoallv`'s
    ordering — deletes them, and returns ``finish(r, arrays)``, which
    persists the received rows.  Inputs are left in place.  Returns the
    per-rank ``finish`` results.
    """
    p = comm.nranks

    def scatter(r: int) -> np.ndarray:
        arrays = _read_rows(inputs, r)
        route = route_of(r, arrays)
        counts = np.zeros(p, dtype=np.int64)
        for j in range(p):
            mask = route == j
            counts[j] = int(mask.sum())
            np.savez(_piece_path(store, tag, r, j), **{name: arr[mask] for name, arr in arrays.items()})
        return counts

    piece_rows = np.array(comm.run_local(scatter), dtype=np.int64)
    _charge_alltoallv(comm, store, tag, piece_rows)

    def gather(r: int):
        pieces = [np.load(_piece_path(store, tag, s, r)) for s in range(p)]
        arrays = {name: np.concatenate([piece[name] for piece in pieces]) for name in inputs}
        for s, piece in enumerate(pieces):
            piece.close()
            os.unlink(_piece_path(store, tag, s, r))
        return finish(r, arrays)

    return comm.run_local(gather)


def ondisk_distributed_kmeans(
    dataset: ShardedDataset | str | os.PathLike,
    k: int,
    nranks: int,
    config: BalancedKMeansConfig | None = None,
    machine: MachineModel | None = None,
    rng: int | np.random.Generator | None = None,
    centers: np.ndarray | None = None,
    topology: MachineTopology | None = None,
    backend: str | None = None,
    comm: Comm | None = None,
    spill_dir: str | os.PathLike | None = None,
    checkpoint: CheckpointStore | str | None = None,
    checkpoint_every: int = 1,
    resume_from: CheckpointStore | str | None = None,
    provenance: dict | None = None,
) -> OndiskKMeansResult:
    """Out-of-core Geographer over a sharded on-disk dataset.

    Accepts the same knobs as the in-memory runner (weights come from the
    dataset itself); additionally:

    spill_dir:
        Directory for per-rank spill files (default: a fresh temporary
        directory).  The final assignment and per-shard state files live
        here after the call; sort, exchange and sampling intermediates are
        deleted as they are consumed.
    resume_from:
        Restarts from an out-of-core checkpoint, bit-identically, with
        per-shard state streamed back to spill one shard at a time.
    """
    cfg = config or BalancedKMeansConfig()
    _check_sfc_seeding(cfg)
    if not isinstance(dataset, ShardedDataset):
        dataset = ShardedDataset(dataset)
    k = check_k(k, dataset.n)
    with _run_context(nranks, comm, backend, machine, topology, cfg=cfg, rng=rng, n=dataset.n, k=k,
                      kind=ONDISK_CHECKPOINT_KIND, input_digest=f"sharded:{dataset.digest}",
                      checkpoint=checkpoint, checkpoint_every=checkpoint_every,
                      resume_from=resume_from, provenance=provenance,
                      load=load_resume_lazy) as (grid, gen, ckpt):
        if spill_dir is None:
            spill_dir = tempfile.mkdtemp(prefix="repro-ondisk-")
        store = SpillStore(spill_dir)
        local_pts, local_w, local_ids, glo, ghi = _lay_out(grid, store, dataset, cfg)
        result, assignment = _kmeans_loop(grid, SpillStorage(grid, store), local_pts, local_w,
                                          local_ids, glo, ghi, k, cfg, gen, centers, ckpt)
    return OndiskKMeansResult(
        assignment_handle=result.assignment,
        centers=result.centers,
        influence=result.influence,
        iterations=result.iterations,
        converged=result.converged,
        imbalance=result.imbalance,
        nranks=result.nranks,
        block_weights=result.block_weights,
        ledger=result.ledger,
        backend=result.backend,
        measured=result.measured,
        spill_dir=store.directory,
        shard_points=local_pts,
        shard_weights=local_w,
        shard_ids=local_ids,
        shard_assignment=assignment,
    )


def _lay_out(comm: Comm, store: SpillStore, dataset: ShardedDataset, cfg: BalancedKMeansConfig):
    """Ingest the dataset block-wise, Hilbert-index it and sort it over the ranks.

    Returns the per-rank SFC-sorted point, weight and original-id handles
    plus the global bounding box.
    """
    p = comm.nranks
    n, dim = dataset.n, dataset.dim
    bits = cfg.sfc_bits or DEFAULT_BITS[dim]

    # -- ingest: deal global rows block-wise into per-rank spill files --------
    comm.set_stage("ingest")
    block_bounds = (np.arange(p + 1, dtype=np.int64) * n) // p

    def ingest(r: int) -> dict:
        lo, hi = int(block_bounds[r]), int(block_bounds[r + 1])
        pts, w, _ = dataset.read_rows(lo, hi)
        return _put_rows(store, r, {"pts": pts, "w": np.ones(hi - lo) if w is None else w,
                                    "ids": np.arange(lo, hi, dtype=np.int64)})

    fields = _transpose(comm.run_local(ingest))

    # -- global bounding box: exact, straight from the manifest ---------------
    comm.set_stage("sfc_index")
    glo, ghi = dataset.bounding_box()
    pts_handles = fields["pts"]

    def index_rank(r: int) -> SpillHandle:
        pts = np.asarray(pts_handles[r].open("r"))
        return store.put(f"keys.{r}", sfc_index(pts, curve=cfg.sfc_curve, bits=bits, box=(glo, ghi)))

    fields = {"keys": comm.run_local(index_rank), **fields}

    # -- sample sort + equalising redistribution over spill files -------------
    comm.set_stage("redistribute")
    rows = _SpillRows(comm, store, fields)
    sample_sort(comm, rows)
    store.remove(*rows.fields["keys"])
    return rows.fields["pts"], rows.fields["w"], rows.fields["ids"], glo, ghi


def _scatter_to_original_order(
    comm: Comm,
    store: SpillStore,
    values: list[SpillHandle],
    ids: list[SpillHandle],
    n: int,
    name: str = "assignment",
) -> SpillHandle:
    """External scatter: write ``out[ids[r]] = values[r]`` with O(n/p) memory.

    An :func:`_exchange` routes every (id, value) pair to the rank owning
    its contiguous id range; that rank assembles its range in memory (O(n/p)
    rows) and writes it into the output file through seek-based windowed
    I/O — the O(n) result file is never memory-mapped, keeping the
    address-space footprint bounded.  Every id must appear exactly once
    across ranks.
    """
    bucket_bounds = (np.arange(comm.nranks + 1, dtype=np.int64) * n) // comm.nranks
    out = store.create(name, (n,) + tuple(values[0].shape[1:]), values[0].dtype)

    def write_bucket(b: int, rows: dict) -> None:
        lo, hi = int(bucket_bounds[b]), int(bucket_bounds[b + 1])
        if rows["i"].shape[0] != hi - lo:
            raise RuntimeError(
                f"scatter bucket {b} received {rows['i'].shape[0]} rows for {hi - lo} ids — "
                "ids are not a permutation of the output range"
            )
        buf = np.empty((hi - lo,) + tuple(out.shape[1:]), dtype=out.dtype)
        buf[rows["i"] - lo] = rows["v"]
        out.write_rows(lo, buf)

    _exchange(comm, store, f"fin-{name}", {"i": ids, "v": values},
              lambda r, rows: np.searchsorted(bucket_bounds, rows["i"], side="right") - 1,
              write_bucket)
    return out
