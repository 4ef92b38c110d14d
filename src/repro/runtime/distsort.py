"""Distributed sample sort + exact redistribution over the :class:`Comm` protocol.

Stands in for the scalable distributed quicksort of Axtmann et al. used by
the paper (§4.1): points are globally sorted by space-filling-curve index and
redistributed so every rank owns an equal, contiguous (hence spatially
compact) chunk.  Sample sort has the same communication pattern (one
splitter allgather + one alltoallv), which is what the cost model charges.

Every decision of the sort — local stable order, sample count, splitter
choice, ``searchsorted`` bins, stable merge, equalising routes — lives in
:func:`sample_sort` and nowhere else.  It moves data only through a small
*rows* seam (``permute`` / ``map_keys`` / ``exchange``) with two
implementations: :class:`_ArrayRows` below keeps per-rank arrays and
exchanges them with :meth:`~repro.runtime.comm.Comm.alltoallv`; the
out-of-core runner's spill rows (:mod:`repro.runtime.ondisk`) keep them in
per-rank files and exchange them through file pieces, so its memory stays
O(n/p) per rank.

The in-memory sort is written in pure-superstep style (rank functions
return fresh arrays, nothing is mutated in place), so it runs unchanged on
every execution backend; the global sorted order is bit-identical across
backends and independent of how the input was distributed over ranks (both
tested).
"""

from __future__ import annotations

import numpy as np

from repro.runtime.comm import Comm

__all__ = ["OVERSAMPLE", "distributed_sort", "sample_sort"]

#: Splitter samples contributed per rank; at least ``p`` are always taken.
#: With fewer than ``p`` the pooled sample array degenerates into
#: ~``OVERSAMPLE`` clusters of near-identical quantiles and consecutive
#: splitters collapse onto the same cluster, leaving worst-case bins of
#: ~``n/OVERSAMPLE`` rows no matter how many ranks there are.
#: ``max(OVERSAMPLE, p)`` keeps the splitter stride at or above the cluster
#: size, so bins stay O(n/p).  Splitters only shape the *intermediate*
#: distribution: equal keys always land in the same bin, the merge is stable
#: in source-rank order and the equalising redistribution targets fixed
#: global positions, so the final output is identical for any splitter
#: choice.
OVERSAMPLE = 8


def distributed_sort(
    comm: Comm,
    keys: list[np.ndarray],
    payloads: list[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
    """Globally sort per-rank ``keys`` (with optional per-rank ``payloads``).

    Returns per-rank sorted chunks such that the rank-order concatenation is
    globally sorted and chunk sizes differ by at most one element (the
    Geographer redistribution step).  ``payloads`` are per-rank arrays of the
    same lengths as ``keys`` (e.g. point rows), permuted and exchanged
    alongside the keys.
    """
    p = comm.nranks
    if len(keys) != p:
        raise ValueError(f"expected {p} per-rank key arrays, got {len(keys)}")
    if payloads is not None and any(len(a) != len(b) for a, b in zip(keys, payloads)):
        raise ValueError("payload lengths must match key lengths per rank")
    rows = _ArrayRows(comm, keys, payloads)
    sample_sort(comm, rows)
    return rows.keys, rows.payloads


def sample_sort(comm: Comm, rows) -> None:
    """Sort ``rows`` globally by key and equalise them over the ranks, in place.

    ``rows`` supplies the data movement only:

    - ``permute(order_of)`` — every rank reorders its rows by
      ``order_of(keys)``;
    - ``map_keys(fn)`` — per-rank ``fn(keys)`` (small results);
    - ``exchange(route_of, merge=None)`` — row ``i`` of rank ``r`` moves to
      rank ``route_of(r, keys)[i]``; receivers concatenate in source-rank
      order, then reorder by ``merge(keys)`` when given.  Returns the
      per-rank row counts afterwards.
    """
    p = comm.nranks

    # 1. local sort (measured)
    rows.permute(_stable_order)
    if p == 1:
        return

    # 2. splitter selection: oversampled allgather, then global quantiles
    per_rank = max(OVERSAMPLE, p)
    samples = np.sort(comm.allgather(rows.map_keys(lambda keys: _samples(keys, per_rank))))
    if samples.size == 0:
        return
    splitters = samples[(np.arange(1, p) * samples.size) // p]

    # 3./4. alltoallv by splitter bins, then a stable local merge (received
    # runs are already sorted per source)
    counts = rows.exchange(lambda r, keys: np.searchsorted(splitters, keys, side="right"),
                           merge=_stable_order)

    # 5. exact redistribution to equal chunk sizes (order-preserving):
    # element with global index g goes to rank (g * p) // total, which deals
    # out floor(n/p) or ceil(n/p) elements per rank (sizes differ by <= 1).
    total = int(counts.sum())
    if total == 0:
        return
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rows.exchange(lambda r, keys: ((offsets[r] + np.arange(keys.shape[0], dtype=np.int64)) * p)
                  // total)


def _stable_order(keys: np.ndarray) -> np.ndarray:
    return np.argsort(keys, kind="stable")


def _samples(sorted_keys: np.ndarray, count: int) -> np.ndarray:
    """``count`` evenly spaced splitter candidates from one rank's sorted keys."""
    if sorted_keys.size == 0:
        return sorted_keys[:0]
    pos = np.linspace(0, sorted_keys.size - 1, num=min(count, sorted_keys.size)).astype(np.int64)
    return sorted_keys[pos]


class _ArrayRows:
    """In-memory rows: per-rank key arrays plus optional payload arrays.

    Rank functions capture the per-rank lists, never ``self`` (which holds
    the communicator), so they ship to worker processes.
    """

    def __init__(self, comm: Comm, keys: list[np.ndarray], payloads: list[np.ndarray] | None):
        self.comm = comm
        self.keys = list(keys)
        self.payloads = payloads

    def permute(self, order_of) -> None:
        keys = self.keys
        orders = self.comm.run_local(lambda r: order_of(keys[r]))
        self.keys = [kk[order] for kk, order in zip(keys, orders)]
        if self.payloads is not None:
            self.payloads = [pl[order] for pl, order in zip(self.payloads, orders)]

    def map_keys(self, fn) -> list:
        keys = self.keys
        return self.comm.run_local(lambda r: fn(keys[r]))

    def exchange(self, route_of, merge=None) -> np.ndarray:
        p = self.comm.nranks
        keys = self.keys
        dest = self.comm.run_local(lambda r: route_of(r, keys[r]))
        self.keys = self.comm.alltoallv([[keys[r][dest[r] == j] for j in range(p)] for r in range(p)])
        if self.payloads is not None:
            pay = self.payloads
            self.payloads = self.comm.alltoallv(
                [[pay[r][dest[r] == j] for j in range(p)] for r in range(p)])
        if merge is not None:
            self.permute(merge)
        return np.array([kk.size for kk in self.keys], dtype=np.int64)
