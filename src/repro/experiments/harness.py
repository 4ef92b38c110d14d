"""Shared experiment machinery: timed runs + plain-text tables."""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from repro.mesh.graph import GeometricMesh
from repro.metrics.report import MetricRow, evaluate_partition
from repro.partitioners.base import get_partitioner

__all__ = [
    "PAPER_TOOLS",
    "format_ledger",
    "format_matrix",
    "format_rows",
    "run_distributed_on_mesh",
    "run_tool_on_mesh",
    "run_tools_on_mesh",
]

#: Tools compared in Tables 1-2 (paper order).
PAPER_TOOLS = ("Geographer", "HSFC", "MultiJagged", "RCB", "RIB")


def run_tool_on_mesh(
    mesh: GeometricMesh,
    tool: str,
    k: int,
    epsilon: float = 0.03,
    seed: int = 0,
    repeats: int = 1,
    with_spmv: bool = True,
    diameter_rounds: int = 3,
) -> MetricRow:
    """Partition ``mesh`` with ``tool`` and measure all paper metrics.

    ``repeats`` averages the wall-clock over several runs (the paper averages
    over 5); the extra runs use shifted seeds purely for timing variety.
    Metrics are always taken from the ``rng=seed`` run, so the reported
    cut/imbalance/diameter are invariant to ``repeats``.
    """
    partitioner = get_partitioner(tool)
    elapsed = []
    result = None
    for rep in range(max(1, repeats)):
        start = time.perf_counter()
        rep_result = partitioner.partition_mesh(mesh, k, epsilon=epsilon, rng=seed + rep)
        elapsed.append(time.perf_counter() - start)
        if rep == 0:
            result = rep_result
    row = evaluate_partition(
        mesh, result.assignment, k, tool=tool, time=float(np.mean(elapsed)),
        diameter_rounds=diameter_rounds, with_spmv=with_spmv,
    )
    return row


def run_tools_on_mesh(
    mesh: GeometricMesh,
    k: int,
    tools: Sequence[str] = PAPER_TOOLS,
    epsilon: float = 0.03,
    seed: int = 0,
    repeats: int = 1,
    with_spmv: bool = True,
    diameter_rounds: int = 3,
) -> list[MetricRow]:
    """One Table-1/2 block: all tools on one mesh."""
    return [
        run_tool_on_mesh(mesh, tool, k, epsilon, seed, repeats, with_spmv, diameter_rounds)
        for tool in tools
    ]


def run_distributed_on_mesh(
    mesh: GeometricMesh,
    k: int,
    nranks: int,
    backend: str | None = None,
    epsilon: float = 0.03,
    seed: int = 0,
    with_spmv: bool = True,
    kernel_backend: str | None = None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume_from=None,
    provenance: dict | None = None,
):
    """Partition ``mesh`` through the distributed runtime on a chosen backend.

    Returns ``(row, result)``: the Table-1/2 metric row (wall-clock of the
    whole run in ``row.time``) plus the
    :class:`~repro.runtime.distributed_kmeans.DistributedKMeansResult`
    carrying the per-stage ledger (modeled on the virtual backend, measured
    on the process and mpi backends; ``backend="mpi"`` requires an SPMD
    launch through :mod:`repro.runtime.mpi_main`).

    ``kernel_backend`` selects the per-rank sweep kernel, ``"numpy"`` or
    ``"numba"`` (the names registered in :mod:`repro.core.xp`; default: the
    config default, still overridable via ``REPRO_KERNEL_BACKEND``).

    ``checkpoint``/``checkpoint_every``/``resume_from``/``provenance`` are
    forwarded to
    :func:`~repro.runtime.distributed_kmeans.distributed_balanced_kmeans`;
    ``provenance`` should carry whatever is needed to rebuild the mesh and
    configuration (the ``repro`` CLI stores instance/scale/seed/epsilon so
    ``repro resume`` can relaunch from the checkpoint alone).
    """
    from repro.core.config import BalancedKMeansConfig
    from repro.runtime.comm import resolve_backend_name
    from repro.runtime.distributed_kmeans import distributed_balanced_kmeans

    cfg = BalancedKMeansConfig(epsilon=epsilon)
    if kernel_backend is not None:
        cfg = cfg.with_(kernel_backend=kernel_backend)
    start = time.perf_counter()
    result = distributed_balanced_kmeans(
        mesh.coords, k, nranks, weights=mesh.node_weights, config=cfg,
        rng=seed, backend=backend,
        checkpoint=checkpoint, checkpoint_every=checkpoint_every,
        resume_from=resume_from, provenance=provenance,
    )
    elapsed = time.perf_counter() - start
    tool = f"Geographer[p={nranks},{resolve_backend_name(backend)}]"
    row = evaluate_partition(mesh, result.assignment, k, tool=tool, time=elapsed,
                             with_spmv=with_spmv)
    return row, result


def format_ledger(ledger, measured: bool = False, title: str = "") -> str:
    """Render a :class:`~repro.runtime.comm.CostLedger` as a stage table.

    ``measured`` labels the seconds as real wall-clock (process backends)
    instead of machine-model time (virtual backend).
    """
    label = "measured" if measured else "modeled"
    header = f"{'stage':<16}{f'{label} s':>12}{'share':>8}"
    lines = [title, header, "-" * len(header)] if title else [header, "-" * len(header)]
    total = ledger.total_seconds
    for stage, secs in sorted(ledger.stages.items()):
        share = secs / total if total > 0 else 0.0
        lines.append(f"{stage:<16}{secs:>12.4e}{share:>8.1%}")
    lines.append(f"{'total':<16}{total:>12.4e}{'':>8}")
    lines.append(
        f"supersteps {ledger.supersteps}, compute {ledger.compute_seconds:.4e} s, "
        f"comm {ledger.comm_seconds:.4e} s"
    )
    counts = ", ".join(f"{op} x{n}" for op, n in sorted(ledger.collective_counts.items()))
    if counts:
        lines.append(f"collectives: {counts}")
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if isinstance(value, float) and not value.is_integer():
        if abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return f"{int(value)}"


def format_rows(rows: Iterable[MetricRow], title: str = "") -> str:
    """Render metric rows as the paper's per-graph table layout."""
    header = f"{'graph':<22}{'tool':<14}{'time':>10}{'cut':>10}{'maxComm':>10}{'totComm':>11}{'harmDiam':>10}{'timeComm':>12}{'imbal':>8}"
    lines = [title, header, "-" * len(header)] if title else [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.graph:<22}{row.tool:<14}{row.time:>10.4f}{_fmt(row.cut):>10}"
            f"{_fmt(row.max_comm_vol):>10}{_fmt(row.total_comm_vol):>11}"
            f"{_fmt(row.harm_diameter):>10}{row.time_spmv_comm:>12.3e}{row.imbalance:>8.3f}"
        )
    return "\n".join(lines)


def format_matrix(
    matrix: dict[str, dict[str, float]],
    metrics: Sequence[str],
    title: str = "",
    baseline: str = "Geographer",
) -> str:
    """Render a Figure-2 style tool x metric ratio matrix."""
    header = f"{'tool':<14}" + "".join(f"{metric:>12}" for metric in metrics)
    lines = [title, header, "-" * len(header)] if title else [header, "-" * len(header)]
    for tool in sorted(matrix, key=lambda t: (t != baseline, t)):
        cells = "".join(
            f"{matrix[tool].get(metric, float('nan')):>12.3f}" for metric in metrics
        )
        lines.append(f"{tool:<14}{cells}")
    return "\n".join(lines)
