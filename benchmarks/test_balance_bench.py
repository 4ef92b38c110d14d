"""Balance-phase trajectory benchmark for the incremental sweep engine.

Extends the perf trajectory started by ``test_kernels_bench.py``
(BENCH_kernels.json) with the assign-and-balance *phase*: a repartitioning
trajectory on ``n = 500k, k = 256`` where a localized refinement hot-spot
(a small region whose integer weights quadruple, moving between rounds)
keeps the affected clusters' influence adapting at the 5 % cap for many
balance iterations per phase.  This is the regime the incremental engine
targets: a global-factor relaxation (``lb *= ratio.min()``) would let one
capped cluster force periodic re-evaluation of the whole point set, while
the candidate-local relaxations confine the damage to the §4.4
neighbourhoods of the adapting clusters, and the block weights are
maintained from per-sweep assignment deltas instead of a full ``bincount``
per iteration.

The trajectory drives the one Algorithm 2 implementation the way the
partitioning service does: a warm :func:`~repro.core.balanced_kmeans
.balanced_kmeans` run settles the partition, then every hot-spot round is
a warm repartition from the previous centers, reusing one sweep workspace
and the SFC order.  Only the balance phases (the ``assign`` stage of the
returned timers) are timed — that is the phase the incremental engine
accelerates; evaluated points come from the per-round history.

Integer weights make every weight sum exact in float64, so the reported
imbalance of the delta-maintained block weights must equal the one
recomputed with ``np.bincount``.  Bit identity with the ``use_bounds=False``
ablation is checked on a scaled-down copy of this trajectory in
``tests/test_incremental.py``.

Results land in the ``results/fresh/BENCH_balance.json`` sidecar (machine-readable
perf floor for future PRs).  The gate is on work, not wall-clock: the
trajectory's point evaluations repeat exactly on every host, so they may
not exceed the committed count by more than 10 %.  Phase seconds are
compared against the committed baseline by ``check_regression.py``.
"""

import json
import os

import numpy as np
import pytest

from repro.core.balanced_kmeans import balanced_kmeans
from repro.core.config import BalancedKMeansConfig
from repro.core.kernels import SweepWorkspace
from repro.sfc.curves import sfc_index

N = 500_000
K = 256
D = 2
SETTLE_PHASES = 12
ROUNDS = 5
PHASES_PER_ROUND = 3
HOT_FRACTION = 0.002
HOT_BUMP = 4.0
EPSILON = 0.03
MAX_BALANCE_ITERATIONS = 70
BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_balance.json"
)


@pytest.fixture(scope="module")
def workload():
    """SFC-sorted points with integer weights, and centers strided along the curve."""
    rng = np.random.default_rng(11)
    pts = rng.random((N, D))
    pts = pts[np.argsort(sfc_index(pts), kind="stable")]
    weights = rng.integers(1, 4, N).astype(np.float64)
    centers = pts[:: N // K][:K].copy()
    return pts, weights, centers


def _run_trajectory(pts, base_w, centers0):
    """Settle, then warm repartitions under a moving refinement hot-spot."""
    cfg = BalancedKMeansConfig(
        epsilon=EPSILON,
        max_balance_iterations=MAX_BALANCE_ITERATIONS,
    )
    order = np.arange(N)  # the points are already in SFC order
    ws = SweepWorkspace(pts, cfg, K)

    def run(weights, centers, phases):
        return balanced_kmeans(pts, K, weights=weights, config=cfg.with_(max_iterations=phases),
                               rng=0, centers=centers, workspace=ws, sfc_order=order)

    result = run(base_w, centers0, SETTLE_PHASES)
    phase_seconds = 0.0
    iterations = 0
    evaluated = 0
    side = np.sqrt(HOT_FRACTION)
    for r in range(ROUNDS):
        cx = 0.15 + 0.7 * (r / max(ROUNDS - 1, 1))
        hot = (np.abs(pts[:, 0] - cx) < side / 2) & (np.abs(pts[:, 1] - 0.5) < side / 2)
        w = base_w.copy()
        w[hot] *= HOT_BUMP
        result = run(w, result.centers, PHASES_PER_ROUND)
        phase_seconds += result.timers.stages["assign"]
        for h in result.history:
            iterations += h.balance_iterations
            evaluated += round((1.0 - h.skip_fraction) * h.sample_size * h.balance_iterations)
    final_bincount = np.bincount(result.assignment, weights=w, minlength=K)
    return {
        "seconds": phase_seconds,
        "iterations": iterations,
        "evaluated": evaluated,
        "imbalance": result.imbalance,
        "bincount_imbalance": float((final_bincount / (w.sum() / K)).max() - 1.0),
    }


def test_balance_trajectory_speedup_and_identity(workload, bench_json_writer):
    """Engine trajectory: exact block weights, point evaluations within 10 % of the baseline."""
    pts, weights, centers = workload
    with open(BENCH_JSON) as fh:
        committed_evaluated = json.load(fh)["incremental"]["points_evaluated"]
    # two repeats, keep the faster (standard min-of-repeats timing; the
    # trajectory is deterministic, so only the wall-clock varies)
    runs = [_run_trajectory(pts, weights, centers) for _ in range(2)]
    inc = min(runs, key=lambda r: r["seconds"])
    assert runs[0]["evaluated"] == runs[1]["evaluated"], "trajectory is not deterministic"
    # integer weights: the delta-maintained block weights must equal the
    # full bincount bit-for-bit, so must the imbalance derived from them
    assert inc["imbalance"] == inc["bincount_imbalance"], (
        "incremental block weights differ from np.bincount"
    )

    payload = {
        "workload": {
            "n": N, "k": K, "d": D,
            "weights": "integer 1..3 (exact in float64)",
            "settle_phases": SETTLE_PHASES,
            "rounds": ROUNDS,
            "phases_per_round": PHASES_PER_ROUND,
            "hot_fraction": HOT_FRACTION,
            "hot_bump": HOT_BUMP,
            "epsilon": EPSILON,
            "max_balance_iterations": MAX_BALANCE_ITERATIONS,
            "driver": "balanced_kmeans warm repartitions (influence restarts at 1 each round)",
        },
        "balance_iterations": inc["iterations"],
        "incremental": {
            "seconds": inc["seconds"],
            "points_evaluated": int(inc["evaluated"]),
            "ms_per_balance_iteration": inc["seconds"] / inc["iterations"] * 1e3,
        },
    }
    written = bench_json_writer(BENCH_JSON, payload)
    print(
        f"\n[BENCH] assign-and-balance phase: {inc['seconds']:.2f}s over "
        f"{inc['iterations']} balance iterations, {inc['evaluated'] / 1e6:.1f}M point "
        f"evaluations (committed {committed_evaluated / 1e6:.1f}M) [written to {written}]"
    )
    # a work count repeats exactly on any host, so unlike wall-clock it is
    # safe to gate on in CI
    assert inc["evaluated"] <= 1.1 * committed_evaluated, (
        f"incremental engine regressed: {inc['evaluated']} point evaluations vs "
        f"{committed_evaluated} committed"
    )
