"""Balance-phase trajectory benchmark: incremental engine vs the full path.

Extends the perf trajectory started by ``test_kernels_bench.py``
(BENCH_kernels.json) with the assign-and-balance *phase*: a repartitioning
trajectory on ``n = 500k, k = 256`` where a localized refinement hot-spot
(a small region whose integer weights quadruple, moving between rounds)
keeps the affected clusters' influence adapting at the 5 % cap for many
balance iterations per phase.  This is the regime the incremental engine
targets: the full path relaxes every point's runner-up bound by the
*global* worst-case factor each iteration (``lb *= ratio.min()``), so one
capped cluster forces periodic re-evaluation of the whole point set, while
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

Integer weights make every weight sum exact in float64, so the incremental
and full paths must agree *bit for bit* — assignments, centers, influence,
imbalance and balance-iteration counts for the whole trajectory — and the
reported imbalance of the delta-maintained block weights must equal the
one recomputed with ``np.bincount``.

Results land in the ``results/fresh/BENCH_balance.json`` sidecar (machine-readable
perf floor for future PRs); the ≥ 1.5x end-to-end phase speedup is enforced
outside CI (shared runners are too noisy for wall-clock thresholds).
"""

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


def _run_trajectory(pts, base_w, centers0, use_incremental):
    """Settle, then warm repartitions under a moving refinement hot-spot."""
    cfg = BalancedKMeansConfig(
        use_incremental=use_incremental,
        epsilon=EPSILON,
        max_balance_iterations=MAX_BALANCE_ITERATIONS,
        incremental_block_size=64,
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
        "assignment": result.assignment.copy(),
        "centers": result.centers.copy(),
        "influence": result.influence.copy(),
        "imbalance": result.imbalance,
        "bincount_imbalance": float((final_bincount / (w.sum() / K)).max() - 1.0),
    }


def test_balance_trajectory_speedup_and_identity(workload, bench_json_writer):
    """Full vs incremental trajectory: bit-identical results, >= 1.5x phase time."""
    pts, weights, centers = workload
    # two repeats per mode, alternating the modes so host drift hits both,
    # keep the faster (standard min-of-repeats timing; the trajectory is
    # deterministic, so results are identical across repeats and only the
    # wall-clock varies)
    runs = {False: [], True: []}
    for _ in range(2):
        for use_incremental in (False, True):
            runs[use_incremental].append(_run_trajectory(pts, weights, centers, use_incremental))
    full, inc = (min(runs[mode], key=lambda r: r["seconds"]) for mode in (False, True))

    # --- bit-identity: the incremental engine is an exact optimisation ----
    assert np.array_equal(full["assignment"], inc["assignment"]), "assignments diverged"
    assert np.array_equal(full["centers"], inc["centers"]), "centers diverged"
    assert np.array_equal(full["influence"], inc["influence"]), "influence diverged"
    assert full["imbalance"] == inc["imbalance"], "imbalance diverged"
    assert full["iterations"] == inc["iterations"], "balance-iteration counts diverged"
    # integer weights: the delta-maintained block weights must equal the
    # full bincount bit-for-bit, so must the imbalance derived from them
    assert inc["imbalance"] == inc["bincount_imbalance"], (
        "incremental block weights differ from np.bincount"
    )

    speedup = full["seconds"] / inc["seconds"]
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
        "balance_iterations": full["iterations"],
        "full": {
            "seconds": full["seconds"],
            "points_evaluated": int(full["evaluated"]),
            "ms_per_balance_iteration": full["seconds"] / full["iterations"] * 1e3,
        },
        "incremental": {
            "seconds": inc["seconds"],
            "points_evaluated": int(inc["evaluated"]),
            "ms_per_balance_iteration": inc["seconds"] / inc["iterations"] * 1e3,
        },
        "speedup_incremental_vs_full": speedup,
        "evaluation_reduction": full["evaluated"] / max(inc["evaluated"], 1),
        "bit_identical": True,
    }
    written = bench_json_writer(BENCH_JSON, payload)
    print(
        f"\n[BENCH] assign-and-balance phase: {speedup:.2f}x "
        f"({full['seconds']:.2f}s -> {inc['seconds']:.2f}s over "
        f"{full['iterations']} balance iterations; evaluations "
        f"{full['evaluated'] / 1e6:.1f}M -> {inc['evaluated'] / 1e6:.1f}M) "
        f"[written to {written}]"
    )
    # shared CI runners are too noisy for wall-clock thresholds; there the
    # measurements are recorded (and uploaded as an artifact) but not enforced
    if os.environ.get("CI"):
        return
    # regression guard with headroom below the controlled number (see the
    # committed BENCH_balance.json: ~1.5-1.6x on a quiet machine), matching
    # the convention of BENCH_kernels.json
    assert speedup >= 1.3, f"incremental engine regressed: only {speedup:.2f}x vs full path"
