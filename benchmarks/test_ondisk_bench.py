"""Streaming-vs-in-memory throughput for the out-of-core runner.

One weighted ``n = 400k`` instance is partitioned twice with identical
config and seed: once from arrays (:func:`distributed_balanced_kmeans`),
once from a sharded on-disk dataset (:func:`ondisk_distributed_kmeans`,
spill files + file-mediated exchanges).  The two must agree bit-for-bit —
that is the tentpole invariant, re-asserted here so a benchmark run can
never report a speed number for a wrong answer — and the streaming
overhead factor is the trajectory being tracked.

Results land in ``results/fresh/BENCH_ondisk.json``;
``check_regression.py`` compares the streaming seconds against the
committed ``BENCH_ondisk.json`` baseline (non-blocking in CI — shared
runners are too noisy to gate on wall-clock).  The streaming run's
superstep count repeats exactly on any host, so the bench itself fails,
in CI too, when it exceeds the committed count.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core.config import BalancedKMeansConfig
from repro.io.sharded import write_sharded
from repro.runtime.distributed_kmeans import distributed_balanced_kmeans
from repro.runtime.ondisk import ondisk_distributed_kmeans

N = 400_000
K = 16
P = 8
SEED = 7
BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_ondisk.json"
)


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    rng = np.random.default_rng(SEED)
    pts = rng.random((N, 2))
    w = 0.5 + rng.random(N)
    ds = write_sharded(tmp_path_factory.mktemp("bench") / "ds", pts, weights=w)
    return pts, w, ds


def test_streaming_throughput(workload, bench_json_writer):
    pts, w, ds = workload
    cfg = BalancedKMeansConfig(max_iterations=8)
    with open(BENCH_JSON) as fh:
        committed_supersteps = json.load(fh)["streaming"]["supersteps"]

    t0 = time.perf_counter()
    mem = distributed_balanced_kmeans(pts, K, P, weights=w, config=cfg, rng=SEED)
    mem_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    dsk = ondisk_distributed_kmeans(ds, K, P, config=cfg, rng=SEED)
    dsk_s = time.perf_counter() - t0

    # a wrong answer must never get a perf number
    assert np.array_equal(mem.assignment, np.asarray(dsk.assignment))
    assert mem.centers.tobytes() == dsk.centers.tobytes()

    overhead = dsk_s / mem_s
    supersteps = dsk.ledger.supersteps
    payload = {
        "n": N,
        "k": K,
        "nranks": P,
        "iterations": dsk.iterations,
        "streaming": {"seconds": dsk_s, "rows_per_second": N / dsk_s, "supersteps": supersteps},
        "in_memory": {"seconds": mem_s, "rows_per_second": N / mem_s},
        "streaming_overhead": overhead,
    }
    written = bench_json_writer(BENCH_JSON, payload)
    print(
        f"\n[BENCH] out-of-core: in-memory {mem_s:.2f}s, streaming {dsk_s:.2f}s "
        f"({overhead:.2f}x overhead, {N / dsk_s / 1e3:.0f}k rows/s), {supersteps} supersteps "
        f"(committed {committed_supersteps}) [written to {written}]"
    )
    # a superstep count repeats exactly on any host, so unlike wall-clock it
    # is safe to gate on in CI
    assert supersteps <= committed_supersteps, (
        f"streaming partition took {supersteps} supersteps vs {committed_supersteps} committed"
    )
    if os.environ.get("CI"):
        return
    # spill I/O and file-mediated exchanges cost real time; the guard is a
    # ceiling on how much, with headroom over the quiet-machine number
    assert overhead < 12.0, f"streaming overhead blew up: {overhead:.2f}x"
