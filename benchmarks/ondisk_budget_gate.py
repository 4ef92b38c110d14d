#!/usr/bin/env python
"""Hard memory-budget gate for the out-of-core pipeline.

Proves the streaming claim the honest way: a child process partitions and
shuffles a sharded dataset **at least ``--factor`` times larger than the
address-space budget it is allowed**, with the budget enforced by the kernel
via ``resource.setrlimit(RLIMIT_AS)`` — not by sampling RSS and hoping.  If
any stage materialises O(n) state, allocation fails and the gate fails.

Three processes cooperate:

* the **parent** streams a synthetic dataset to disk (never holding more
  than one chunk), launches the children, and writes the merged report;
* the **gate child** imports everything, runs a tiny warm-up partition to
  fault in lazy allocations, reads its ``VmSize`` baseline from
  ``/proc/self/status``, caps itself at ``VmSize + budget``, then runs the
  out-of-core partition + shuffle + conservation check under that cap;
* the optional **control child** (``--control``) gets the same cap and
  tries the *in-memory* path; it must die of ``MemoryError``, proving the
  cap is real and the dataset genuinely does not fit.

Per-rank state is O(n/p) and whole-rank files are memory-mapped (mappings
count toward RLIMIT_AS), so ``--nranks`` must keep ``n/p`` comfortably
inside the budget; the defaults satisfy ``dataset = 4 x budget`` with
~10x headroom per rank.

Usage (CI)::

    python benchmarks/ondisk_budget_gate.py --budget-mb 32 --out report.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
if SRC_DIR not in sys.path:  # runnable without an installed package
    sys.path.insert(0, SRC_DIR)
DIM = 2
ROW_BYTES = (DIM + 1) * 8  # points + weight, all float64
CHUNK_ROWS = 262_144


def vm_size_bytes() -> int:
    """Current virtual address-space size from ``/proc/self/status``."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize not found in /proc/self/status")


def cap_address_space(budget_bytes: int) -> tuple[int, int]:
    """Cap RLIMIT_AS at the current VmSize plus ``budget_bytes``."""
    baseline = vm_size_bytes()
    limit = baseline + budget_bytes
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    return baseline, limit


def warm_up() -> None:
    """Fault in numpy pools, kernels and pickling before the cap lands."""
    import numpy as np

    from repro.core.config import BalancedKMeansConfig
    from repro.runtime.distributed_kmeans import distributed_balanced_kmeans

    pts = np.random.default_rng(0).random((512, DIM))
    cfg = BalancedKMeansConfig(max_iterations=2, use_sampling=False)
    distributed_balanced_kmeans(pts, 2, 2, config=cfg, rng=0)


def build_dataset(directory: str, rows: int, shard_rows: int, seed: int):
    """Stream ``rows`` random weighted points to a sharded dataset."""
    import numpy as np

    from repro.io.sharded import ShardedDatasetWriter

    writer = ShardedDatasetWriter(directory, dim=DIM, shard_rows=shard_rows,
                                  with_weights=True)
    rng = np.random.default_rng(seed)
    done = 0
    while done < rows:
        take = min(CHUNK_ROWS, rows - done)
        writer.append(rng.random((take, DIM)), weights=0.5 + rng.random(take))
        done += take
    return writer.finalize()


def run_gate_child(args) -> int:
    warm_up()
    baseline, limit = cap_address_space(args.budget_bytes)

    import numpy as np

    from repro.core.config import BalancedKMeansConfig
    from repro.runtime.ondisk import ondisk_distributed_kmeans
    from repro.runtime.shuffle import shuffle_to_disk, verify_shuffle

    cfg = BalancedKMeansConfig(epsilon=0.05, max_iterations=args.iters,
                               use_sampling=False)
    # spill next to the shuffle output, inside the parent's work directory,
    # which the parent removes; the cap counts the maps wherever they live
    spill = os.path.join(os.path.dirname(os.path.abspath(args.shuffle_out)), "spill")
    result = ondisk_distributed_kmeans(args.manifest, args.k, args.nranks,
                                       config=cfg, rng=args.seed, spill_dir=spill)
    output = shuffle_to_disk(result, args.shuffle_out)
    report = verify_shuffle(output)
    ledger = result.ledger
    body = {
        "budget_bytes": args.budget_bytes,
        "baseline_vmsize_bytes": baseline,
        "limit_bytes": limit,
        "n": report["n"],
        "k": args.k,
        "nranks": args.nranks,
        "iterations": result.iterations,
        "converged": result.converged,
        "imbalance": result.imbalance,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "shuffle_counts": [int(c) for c in np.asarray(report["counts"])],
        "conserved": report["conserved"],
        "ledger": {
            "compute_seconds": ledger.compute_seconds,
            "comm_seconds": ledger.comm_seconds,
            "supersteps": ledger.supersteps,
            "collective_counts": dict(ledger.collective_counts),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(body, fh, indent=2)
        fh.write("\n")
    return 0


def run_control_child(args) -> int:
    """In-memory path under the same cap: success here means the cap is fake."""
    warm_up()
    cap_address_space(args.budget_bytes)

    from repro.core.config import BalancedKMeansConfig
    from repro.io.sharded import ShardedDataset
    from repro.runtime.distributed_kmeans import distributed_balanced_kmeans

    try:
        pts, w, _ = ShardedDataset(args.manifest).load()
        cfg = BalancedKMeansConfig(epsilon=0.05, max_iterations=args.iters,
                                   use_sampling=False)
        distributed_balanced_kmeans(pts, args.k, args.nranks, weights=w,
                                    config=cfg, rng=args.seed)
    except MemoryError:
        print("control: in-memory path hit MemoryError under the cap (expected)")
        return 0
    print("control: in-memory path SURVIVED the cap -- budget not enforced",
          file=sys.stderr)
    return 1


def child_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + existing if existing else "")
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget-mb", type=int, default=64,
                        help="address-space budget over the import baseline (MiB)")
    parser.add_argument("--factor", type=float, default=4.0,
                        help="dataset size as a multiple of the budget (>= 4 per the gate contract)")
    parser.add_argument("--nranks", "-p", type=int, default=48,
                        help="virtual ranks; per-rank state is O(n/p) and must fit the budget")
    parser.add_argument("-k", type=int, default=48,
                        help="blocks; keep k >= nranks or some shuffle outputs "
                             "grow to O(n/k) instead of O(n/p)")
    parser.add_argument("--iters", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shard-rows", type=int, default=CHUNK_ROWS)
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (a temp dir is created and removed by default)")
    parser.add_argument("--out", default="BUDGET_ondisk.json",
                        help="merged report path")
    parser.add_argument("--control", action="store_true",
                        help="also run the in-memory control child (must OOM)")
    parser.add_argument("--timeout", type=float, default=1800.0)
    # internal child modes
    parser.add_argument("--gate-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--control-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--manifest", help=argparse.SUPPRESS)
    parser.add_argument("--budget-bytes", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--shuffle-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.gate_child:
        return run_gate_child(args)
    if args.control_child:
        return run_control_child(args)

    budget_bytes = args.budget_mb << 20
    rows = -(-int(args.factor * budget_bytes) // ROW_BYTES)

    with tempfile.TemporaryDirectory(dir=args.workdir) as work:
        print(f"building {rows} rows ({rows * ROW_BYTES >> 20} MiB) against a "
              f"{args.budget_mb} MiB budget ...", flush=True)
        ds_dir = os.path.join(work, "dataset")
        build_dataset(ds_dir, rows, args.shard_rows, args.seed)

        report_path = os.path.join(work, "gate.json")
        common = ["--manifest", ds_dir, "--budget-bytes", str(budget_bytes),
                  "-k", str(args.k), "--nranks", str(args.nranks),
                  "--iters", str(args.iters), "--seed", str(args.seed)]
        gate = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--gate-child", *common,
             "--shuffle-out", os.path.join(work, "shuffle"),
             "--out", report_path],
            env=child_env(), timeout=args.timeout,
        )
        if gate.returncode != 0:
            print(f"FAIL: out-of-core pipeline died under the {args.budget_mb} MiB "
                  f"cap (exit {gate.returncode})", file=sys.stderr)
            return 1
        with open(report_path) as fh:
            body = json.load(fh)
        if not body.get("conserved"):
            print("FAIL: shuffle conservation check did not pass", file=sys.stderr)
            return 1

        if args.control:
            control = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--control-child", *common],
                env=child_env(), timeout=args.timeout,
            )
            body["control_oom"] = control.returncode == 0
            if control.returncode != 0:
                print("FAIL: control (in-memory) child did not OOM -- the cap "
                      "is not binding", file=sys.stderr)
                return 1

    body["dataset_bytes"] = rows * ROW_BYTES
    body["factor"] = args.factor
    with open(args.out, "w") as fh:
        json.dump(body, fh, indent=2)
        fh.write("\n")
    print(f"PASS: partitioned+shuffled {body['n']} rows "
          f"({body['dataset_bytes'] >> 20} MiB) under a {args.budget_mb} MiB cap; "
          f"peak RSS {body['ru_maxrss_kb'] >> 10} MiB; report -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
