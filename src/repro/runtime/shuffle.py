"""Post-partition shuffle: route every point to the rank that owns its block.

A partition run leaves each point's *assignment* wherever the point
happened to live (SFC order for the distributed runners); downstream
consumers — a solver, a renumbering pass, a per-block writer — want each
rank to hold exactly the payloads of *its own* blocks.  The shuffle
redistributes per-point payloads (features, weights, original ids,
assignments) to the owning rank and records a global→local id remap so
original-order data can still be addressed afterwards.

Block ownership is the contiguous map ``owner(b) = (b * nranks) // k``
(:func:`block_owner`), the same arithmetic the hierarchy uses to fold
blocks onto ranks, so block ids stay sorted across the rank sequence.

Two paths, one canonical output order:

- :func:`shuffle_partition` — in-memory, per-rank chunk lists through one
  packed :meth:`~repro.runtime.comm.Comm.alltoallv`.
- :func:`shuffle_to_disk` — out-of-core, over the per-rank spill handles
  of an :class:`~repro.runtime.ondisk.OndiskKMeansResult`, emitting
  ``rank-NNNN.{points,weights,ids,assignment}.npy`` files plus an O(n)
  ``remap.npy`` table (``[owner_rank, local_index]`` per global id,
  written with seek-based windowed I/O — never mapped wholly) and a
  ``shuffle.json`` manifest with per-file digests.

Within each destination rank, rows are stably ordered by ``(assignment,
original id)`` — so the two paths produce bit-identical rank files for
the same partition regardless of how the inputs were distributed.

:func:`verify_shuffle` re-checks conservation from the files alone: every
global id appears in exactly one rank file exactly once (a packed bitset
keeps this O(n/8) bytes), every row landed on the rank that owns its
block, and the remap table is consistent with the rank file sizes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.io.sharded import _atomic_write_json, _file_digest
from repro.io.spill import SpillHandle, SpillStore
from repro.runtime.comm import Comm, make_comm
from repro.runtime.costmodel import MachineModel, MachineTopology

__all__ = [
    "SHUFFLE_MANIFEST_NAME",
    "ShuffleOutput",
    "ShuffleVerificationError",
    "ShuffledPartition",
    "block_owner",
    "shuffle_partition",
    "shuffle_to_disk",
    "verify_shuffle",
]

SHUFFLE_FORMAT = "repro-shuffle"
SHUFFLE_VERSION = 1
SHUFFLE_MANIFEST_NAME = "shuffle.json"

_VERIFY_WINDOW = 1 << 16  # rows per streaming window in verify_shuffle (1 MiB of remap rows)


class ShuffleVerificationError(RuntimeError):
    """The shuffled output violates conservation or ownership."""


def block_owner(k: int, nranks: int) -> np.ndarray:
    """Owning rank of each block: the contiguous map ``(b * nranks) // k``.

    Monotone in ``b``, so each rank owns a contiguous block range and the
    concatenation of rank outputs is globally block-sorted.
    """
    if k < 1 or nranks < 1:
        raise ValueError(f"need k >= 1 and nranks >= 1, got k={k}, nranks={nranks}")
    return (np.arange(k, dtype=np.int64) * nranks) // k


def _canonical_order(assignment: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Stable within-rank order: by assignment, ties by original id."""
    return np.lexsort((ids, assignment))


@dataclass
class ShuffledPartition:
    """In-memory shuffle result: per-rank payload chunks in canonical order."""

    points: list[np.ndarray]
    weights: list[np.ndarray]
    ids: list[np.ndarray]
    assignment: list[np.ndarray]
    k: int
    owner: np.ndarray

    @property
    def nranks(self) -> int:
        return len(self.points)

    @property
    def counts(self) -> np.ndarray:
        return np.array([a.shape[0] for a in self.assignment], dtype=np.int64)


def shuffle_partition(
    comm: Comm,
    k: int,
    points: list[np.ndarray],
    weights: list[np.ndarray],
    ids: list[np.ndarray],
    assignment: list[np.ndarray],
) -> ShuffledPartition:
    """Redistribute per-rank payload chunks to block owners via ``alltoallv``.

    Each of ``points``/``weights``/``ids``/``assignment`` is a per-rank
    list (``len == comm.nranks``).  Payloads are packed into one float64
    matrix per destination (coords | weight | id | assignment) so the
    exchange is a single collective, exactly like the runner's sort.
    """
    p = comm.nranks
    if not (len(points) == len(weights) == len(ids) == len(assignment) == p):
        raise ValueError(f"need {p} per-rank chunks for every field")
    owners = block_owner(k, p)
    comm.set_stage("shuffle")
    dim = points[0].shape[1] if points[0].ndim == 2 else 1

    def pack(r: int) -> np.ndarray:
        pts = np.asarray(points[r], dtype=np.float64).reshape(-1, dim)
        return np.column_stack([
            pts,
            np.asarray(weights[r], dtype=np.float64),
            np.asarray(ids[r], dtype=np.float64),
            np.asarray(assignment[r], dtype=np.float64),
        ])

    def split(r: int) -> list[np.ndarray]:
        payload = pack(r)
        route = owners[np.asarray(assignment[r], dtype=np.int64)]
        return [payload[route == j] for j in range(p)]

    recv = comm.alltoallv(comm.run_local(split))
    out_pts, out_w, out_ids, out_a = [], [], [], []
    for j in range(p):
        payload = recv[j].reshape(-1, dim + 3)
        ids_j = payload[:, dim + 1].astype(np.int64)
        a_j = payload[:, dim + 2].astype(np.int64)
        order = _canonical_order(a_j, ids_j)
        out_pts.append(np.ascontiguousarray(payload[order, :dim]))
        out_w.append(np.ascontiguousarray(payload[order, dim]))
        out_ids.append(ids_j[order])
        out_a.append(a_j[order])
    return ShuffledPartition(out_pts, out_w, out_ids, out_a, k=k, owner=owners)


@dataclass
class ShuffleOutput:
    """Handle on a shuffled on-disk partition directory."""

    directory: str
    n: int
    k: int
    nranks: int
    counts: np.ndarray
    owner: np.ndarray
    digests: dict = field(default_factory=dict)

    def _rank_path(self, rank: int, fld: str) -> str:
        return os.path.join(self.directory, f"rank-{rank:04d}.{fld}.npy")

    def open_rank(self, rank: int, fld: str) -> np.ndarray:
        """Memory-map one rank's field file (O(n/p) mapping)."""
        return np.load(self._rank_path(rank, fld), mmap_mode="r")

    def load_rank(self, rank: int) -> dict[str, np.ndarray]:
        """Materialise one rank's payload (points/weights/ids/assignment)."""
        return {fld: np.load(self._rank_path(rank, fld))
                for fld in ("points", "weights", "ids", "assignment")}

    @property
    def remap(self) -> SpillHandle:
        """Seek-access handle on the (n, 2) [owner_rank, local_index] table."""
        return SpillStore(self.directory).handle("remap")

    @classmethod
    def open(cls, directory: str | os.PathLike) -> "ShuffleOutput":
        import json

        path = Path(directory) / SHUFFLE_MANIFEST_NAME
        with open(path) as fh:
            body = json.load(fh)
        if body.get("format") != SHUFFLE_FORMAT:
            raise ValueError(f"{path}: not a {SHUFFLE_FORMAT} manifest")
        return cls(
            directory=str(directory),
            n=int(body["n"]),
            k=int(body["k"]),
            nranks=int(body["nranks"]),
            counts=np.array(body["counts"], dtype=np.int64),
            owner=block_owner(int(body["k"]), int(body["nranks"])),
            digests=dict(body.get("digests", {})),
        )


def shuffle_to_disk(
    result,
    out_dir: str | os.PathLike,
    comm: Comm | None = None,
    backend: str | None = None,
    machine: MachineModel | None = None,
    topology: MachineTopology | None = None,
) -> ShuffleOutput:
    """Out-of-core shuffle of an :class:`OndiskKMeansResult` into ``out_dir``.

    Reads the run's per-rank spill handles (``shard_points`` etc.), routes
    rows to block owners through the out-of-core runner's file-mediated
    alltoallv (:func:`repro.runtime.ondisk._exchange`, charged to the
    machine model on modeled backends) with the canonical (assignment, id)
    order as its merge step, and writes per rank:
    ``rank-NNNN.points.npy`` / ``.weights.npy`` / ``.ids.npy`` /
    ``.assignment.npy``, plus the global ``remap.npy`` and the
    ``shuffle.json`` manifest.  Peak memory is O(n/p); the O(n) remap file
    is written through seek-based windows.
    """
    from repro.runtime.ondisk import _exchange, _scatter_to_original_order

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    PTS, W = result.shard_points, result.shard_weights
    IDS, A = result.shard_ids, result.shard_assignment
    p = result.nranks
    if not (len(PTS) == len(W) == len(IDS) == len(A) == p):
        raise ValueError("result is missing per-rank shard handles (materialised result?)")
    k = int(result.centers.shape[0])
    n = int(sum(h.rows for h in IDS))
    owners = block_owner(k, p)
    owns_comm = comm is None
    if comm is None:
        comm = make_comm(p, backend=backend, machine=machine, topology=topology)
    elif comm.nranks != p:
        raise ValueError(f"comm has {comm.nranks} ranks but the result has {p}")
    scratch = SpillStore(out / ".scratch")
    prev_stage = comm._stage
    comm.set_stage("shuffle")
    try:
        def write_rank(j: int, rows: dict) -> int:
            order = _canonical_order(rows["a"], rows["i"])
            for fld, key in (("points", "p"), ("weights", "w"), ("ids", "i"), ("assignment", "a")):
                np.save(os.path.join(out, f"rank-{j:04d}.{fld}.npy"),
                        np.ascontiguousarray(rows[key][order]))
            # remap source: global id -> (owner rank, local index)
            ids_j = rows["i"][order]
            scratch.put(f"rmv.{j}", np.column_stack([
                np.full(ids_j.shape[0], j, dtype=np.int64),
                np.arange(ids_j.shape[0], dtype=np.int64),
            ]))
            scratch.put(f"rmi.{j}", ids_j)
            return ids_j.shape[0]

        counts = np.array(_exchange(comm, scratch, "shuffle", {"p": PTS, "w": W, "i": IDS, "a": A},
                                    lambda r, rows: owners[rows["a"]], write_rank), dtype=np.int64)
        remap = _scatter_to_original_order(
            comm, scratch,
            values=[scratch.handle(f"rmv.{j}") for j in range(p)],
            ids=[scratch.handle(f"rmi.{j}") for j in range(p)],
            n=n, name="remap",
        )
        os.replace(remap.path, os.path.join(out, "remap.npy"))

        digests = {"remap.npy": _file_digest(out / "remap.npy")}
        for j in range(p):
            for fld in ("points", "weights", "ids", "assignment"):
                name = f"rank-{j:04d}.{fld}.npy"
                digests[name] = _file_digest(out / name)
        _atomic_write_json(out / SHUFFLE_MANIFEST_NAME, {
            "format": SHUFFLE_FORMAT,
            "version": SHUFFLE_VERSION,
            "n": n,
            "k": k,
            "nranks": p,
            "counts": [int(c) for c in counts],
            "digests": digests,
        })
        return ShuffleOutput(directory=str(out), n=n, k=k, nranks=p,
                             counts=counts, owner=owners, digests=digests)
    finally:
        scratch.cleanup()
        if owns_comm:
            comm.close()
        else:
            comm.set_stage(prev_stage)


def verify_shuffle(target: ShuffleOutput | str | os.PathLike) -> dict:
    """Streaming conservation check of a shuffled output directory.

    Verifies, without ever holding more than a window of rows plus an
    n-bit set in memory:

    - every global id in ``[0, n)`` appears in exactly one rank file,
      exactly once (packed bitset, duplicates and gaps both fatal);
    - every row's block is owned by the rank file it landed in;
    - rank file sizes match the manifest counts;
    - the remap table references each rank exactly ``counts[rank]`` times
      with in-range local indices.

    Returns a small report dict; raises :class:`ShuffleVerificationError`
    on the first violation.
    """
    output = target if isinstance(target, ShuffleOutput) else ShuffleOutput.open(target)
    n, p = output.n, output.nranks
    owners = output.owner
    seen = np.zeros((n + 7) // 8, dtype=np.uint8)
    for j in range(p):
        ids = output.open_rank(j, "ids")
        assignment = output.open_rank(j, "assignment")
        if ids.shape[0] != int(output.counts[j]):
            raise ShuffleVerificationError(
                f"rank {j}: ids file has {ids.shape[0]} rows, manifest says {int(output.counts[j])}")
        for lo in range(0, ids.shape[0], _VERIFY_WINDOW):
            chunk = np.asarray(ids[lo:lo + _VERIFY_WINDOW])
            a = np.asarray(assignment[lo:lo + _VERIFY_WINDOW])
            if chunk.size and (chunk.min() < 0 or chunk.max() >= n):
                raise ShuffleVerificationError(f"rank {j}: id out of range [0, {n})")
            if np.unique(chunk).size != chunk.size:
                raise ShuffleVerificationError(f"rank {j}: duplicate ids within a window")
            if not np.all(owners[a] == j):
                raise ShuffleVerificationError(f"rank {j}: holds a block it does not own")
            byte, bit = chunk >> 3, (chunk & 7).astype(np.uint8)
            if np.any((seen[byte] >> bit) & 1):
                raise ShuffleVerificationError(f"rank {j}: id already owned by another row")
            np.bitwise_or.at(seen, byte, np.uint8(1) << bit)
    covered = int(np.unpackbits(seen).sum())
    if covered != n:
        raise ShuffleVerificationError(f"only {covered} of {n} global ids are covered")

    remap = output.remap
    if tuple(remap.shape) != (n, 2):
        raise ShuffleVerificationError(f"remap has shape {remap.shape}, expected ({n}, 2)")
    tally = np.zeros(p, dtype=np.int64)
    for lo in range(0, n, _VERIFY_WINDOW):
        rows = remap.read_rows(lo, min(lo + _VERIFY_WINDOW, n))
        rank, local = rows[:, 0], rows[:, 1]
        if rows.size and (rank.min() < 0 or rank.max() >= p):
            raise ShuffleVerificationError("remap references a rank out of range")
        if np.any(local < 0) or np.any(local >= output.counts[rank]):
            raise ShuffleVerificationError("remap local index out of range for its rank")
        tally += np.bincount(rank, minlength=p)
    if not np.array_equal(tally, output.counts):
        raise ShuffleVerificationError(
            f"remap rank tallies {tally.tolist()} != counts {output.counts.tolist()}")
    return {
        "n": n,
        "k": output.k,
        "nranks": p,
        "counts": [int(c) for c in output.counts],
        "conserved": True,
    }
