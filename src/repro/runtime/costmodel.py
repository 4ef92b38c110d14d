"""Machine model for the simulated MPI runtime.

An alpha-beta (latency-bandwidth) model with a SuperMUC-like island topology:
communication crossing an island boundary pays a penalty factor.  The paper
attributes the running-time increase from 8 192 to 16 384 processes exactly
to this effect ("an island in SuperMUC contains 8 192 cores and communication
is more expensive across islands", §5.3.2); the penalty lets the simulated
scaling curves reproduce that kink.

Collective costs use standard implementations: logarithmic trees for
reduce/broadcast-style collectives, linear exchange for alltoallv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["MachineModel", "MachineTopology", "SUPERMUC_LIKE", "SUPERMUC_TOPOLOGY"]


@dataclass(frozen=True)
class MachineTopology:
    """The process hierarchy of a machine: islands → nodes → cores.

    ``branching`` lists the fan-out per level from the root down, e.g.
    ``(2, 3, 4)`` for 2 islands of 3 nodes of 4 cores = 24 ranks.  The same
    object drives both sides of topology-aware partitioning: the
    :class:`~repro.partitioners.hierarchical.HierarchicalPartitioner` uses it
    as the factorisation ``k = k1 x k2 x ...`` (one partitioning level per
    machine level), and the simulated runtime uses it to cost collectives as
    staged per-level reductions instead of one flat tree.
    """

    branching: tuple[int, ...]
    level_names: tuple[str, ...] = ()

    _DEFAULT_NAMES = ("island", "node", "core")

    def __post_init__(self) -> None:
        branching = tuple(int(b) for b in self.branching)
        if not branching or any(b < 1 for b in branching):
            raise ValueError(f"branching must be positive integers, got {self.branching}")
        object.__setattr__(self, "branching", branching)
        if not self.level_names:
            if len(branching) <= len(self._DEFAULT_NAMES):
                names = self._DEFAULT_NAMES[-len(branching):]
            else:
                names = tuple(f"level{i}" for i in range(len(branching)))
            object.__setattr__(self, "level_names", names)
        elif len(self.level_names) != len(branching):
            raise ValueError("level_names must match branching in length")

    @property
    def nlevels(self) -> int:
        return len(self.branching)

    @property
    def total(self) -> int:
        """Total leaf count (ranks / blocks)."""
        return math.prod(self.branching)

    def subtree_size(self, level: int) -> int:
        """Leaves under one level-``level`` group (``total`` at the root, 1 past the leaves)."""
        return math.prod(self.branching[level:])

    @classmethod
    def from_factorization(cls, *branching: int) -> "MachineTopology":
        """Build from an explicit factorisation, e.g. ``from_factorization(2, 3, 4)``."""
        return cls(branching=tuple(branching))

    def machine_model(self, **kwargs) -> "MachineModel":
        """A :class:`MachineModel` whose island size matches this hierarchy."""
        kwargs.setdefault("island_size", self.subtree_size(1) if self.nlevels > 1 else self.total)
        return MachineModel(**kwargs)

    def __str__(self) -> str:
        parts = [f"{n} {name}s" for n, name in zip(self.branching, self.level_names)]
        return f"MachineTopology({' x '.join(parts)} = {self.total})"


@dataclass(frozen=True)
class MachineModel:
    """Cost parameters of the simulated machine.

    Attributes
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Per-byte transfer time in seconds (inverse bandwidth).
    island_size:
        Number of ranks per island; jobs larger than one island pay
        ``island_factor`` on every communication.
    compute_rate:
        Point-operations per second used when local work is *modeled*
        instead of measured (scaling extrapolation).
    """

    alpha: float = 5.0e-6
    beta: float = 5.0e-10
    island_size: int = 8192
    island_factor: float = 4.0
    compute_rate: float = 5.0e8

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.island_size < 1 or self.island_factor < 1.0:
            raise ValueError("island_size >= 1 and island_factor >= 1 required")
        if self.compute_rate <= 0:
            raise ValueError("compute_rate must be positive")

    def penalty(self, nranks: int) -> float:
        """Island penalty: 1 inside a single island, ``island_factor`` beyond."""
        return 1.0 if nranks <= self.island_size else self.island_factor

    def allreduce(self, nbytes: float, nranks: int) -> float:
        """Tree allreduce: ceil(log2 p) rounds of alpha + beta * nbytes."""
        if nranks <= 1:
            return 0.0
        rounds = math.ceil(math.log2(nranks))
        return rounds * (self.alpha + self.beta * float(nbytes)) * self.penalty(nranks)

    def allgather(self, nbytes_per_rank: float, nranks: int) -> float:
        """Recursive-doubling allgather: log rounds, doubling payloads."""
        if nranks <= 1:
            return 0.0
        rounds = math.ceil(math.log2(nranks))
        total = 0.0
        payload = float(nbytes_per_rank)
        for _ in range(rounds):
            total += self.alpha + self.beta * payload
            payload *= 2.0
        return total * self.penalty(nranks)

    def alltoallv(self, max_bytes_per_rank: float, nranks: int) -> float:
        """Linear alltoallv: p-1 messages, bandwidth bound by the largest rank."""
        if nranks <= 1:
            return 0.0
        return ((nranks - 1) * self.alpha + self.beta * float(max_bytes_per_rank)) * self.penalty(nranks)

    def hierarchical_allreduce(self, nbytes: float, topology: "MachineTopology") -> float:
        """Topology-aware allreduce: staged per-level tree reductions.

        Reduce within the innermost groups first (cores of a node, then nodes
        of an island), crossing the island boundary only at the root stage —
        so only ``ceil(log2(#islands))`` rounds pay the island penalty, versus
        every round in the flat tree.  This is the reduction structure the
        hierarchical partitioner's per-level block layout enables.
        """
        total = 0.0
        for level, fanout in enumerate(topology.branching):
            if fanout <= 1:
                continue
            rounds = math.ceil(math.log2(fanout))
            penalty = self.island_factor if level == 0 and topology.total > self.island_size else 1.0
            total += rounds * (self.alpha + self.beta * float(nbytes)) * penalty
        return total

    def compute(self, point_ops: float) -> float:
        """Modeled local compute time for ``point_ops`` point-operations."""
        return float(point_ops) / self.compute_rate


#: Default machine: tuned so simulated absolute times land in the same
#: seconds-range as the paper's SuperMUC runs (shape is what matters).
SUPERMUC_LIKE = MachineModel()

#: A SuperMUC-like hierarchy: 2 islands x 512 nodes x 16 cores = 16 384 ranks,
#: matching the paper's largest strong-scaling configuration.
SUPERMUC_TOPOLOGY = MachineTopology(branching=(2, 512, 16))
