"""Figure 1 benchmark: partition hugetric into 8 blocks with every tool.

Regenerates the paper's visual comparison (SVG panels) and benchmarks each
tool's wall-clock on the same mesh — the per-tool time ordering (HSFC/MJ
fastest, Geographer slowest-but-seconds) should match Tables 1-2.
"""

import os

import pytest

from repro.experiments import figure1
from repro.experiments.harness import PAPER_TOOLS
from repro.mesh.adaptive import hugetric_like
from repro.partitioners.base import get_partitioner

K = 8


@pytest.fixture(scope="module")
def mesh():
    return hugetric_like(6000, rng=0)


@pytest.mark.parametrize("tool", PAPER_TOOLS)
def test_figure1_partition_time(benchmark, mesh, tool):
    partitioner = get_partitioner(tool)
    assignment = benchmark(lambda: partitioner.partition_mesh(mesh, K, rng=0))
    assert assignment.max() == K - 1


def test_figure1_render_panels(benchmark, emit, results_dir):
    outputs = benchmark.pedantic(
        lambda: figure1.run(results_dir, n=6000, k=K, seed=0), rounds=1, iterations=1
    )
    emit(
        "figure1_panels",
        "\n".join(f"{name}: {os.path.relpath(path, results_dir)}"
                  for name, path in outputs.items()),
    )
    assert len(outputs) == len(PAPER_TOOLS) + 1
