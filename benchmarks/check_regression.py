"""Benchmark regression check, shared by CI and local runs.

Compares a freshly measured benchmark JSON against a committed baseline and
fails (exit 1) when a tracked time regressed beyond a threshold::

    python benchmarks/check_regression.py BENCH_balance.json --threshold 1.2

The benches never touch the committed baseline (that needs an explicit
``REPRO_UPDATE_BENCH=1`` run); fresh measurements land in the git-ignored
``benchmarks/results/fresh/`` sidecar, which is where the ``fresh``
argument defaults to (``fresh/<basename of the committed file>``).

Two schemas are recognised by their keys:

- ``BENCH_balance.json`` (``{"incremental": ...}``): the incremental-engine
  phase time is compared directly; the point evaluations are reported
  alongside (the bench itself fails when they exceed the committed count
  by more than 10 %).
- ``BENCH_kernels.json`` (``{"entries": [...]}``): every sweep bench present
  in *both* files (matched by name) is compared on ``seconds_min``; benches
  missing on either side (e.g. deselected ones) are skipped with a note,
  never treated as a regression.
- ``BENCH_ondisk.json`` (``{"streaming": ...}``): the out-of-core runner's
  wall-clock is compared directly; the streaming-vs-in-memory overhead
  factor and the superstep count are reported alongside (the bench itself
  fails when the count exceeds the committed one).

CI calls this after the tier-1 suite re-measures the trajectory (the step
stays non-blocking there: shared runners are too noisy to gate on); local
runs can call it directly after ``pytest benchmarks/test_balance_bench.py``
or ``pytest benchmarks/test_kernels_bench.py``.  Inside GitHub Actions the
failure also emits a ``::warning::`` annotation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def compare_balance(committed: dict, fresh: dict) -> tuple[float, list[str]]:
    """Return ``(ratio, report lines)`` for fresh-vs-committed phase time."""
    old = committed["incremental"]["seconds"]
    new = fresh["incremental"]["seconds"]
    ratio = new / old
    lines = [
        f"incremental phase: committed {old:.2f}s, fresh {new:.2f}s ({ratio:.2f}x)",
        f"point evaluations: committed {committed['incremental']['points_evaluated']}, "
        f"fresh {fresh['incremental']['points_evaluated']}",
    ]
    return ratio, lines


def compare_kernels(committed: dict, fresh: dict) -> tuple[float, list[str]]:
    """Worst fresh/committed ratio over the sweep benches both files hold."""
    old_entries = {e["bench"]: e for e in committed.get("entries", [])}
    new_entries = {e["bench"]: e for e in fresh.get("entries", [])}
    worst, lines = 0.0, []
    for name in sorted(old_entries):
        if name not in new_entries:
            lines.append(f"{name}: not measured here (backend unavailable) — skipped")
            continue
        old = old_entries[name]["seconds_min"]
        new = new_entries[name]["seconds_min"]
        ratio = new / old
        backend = new_entries[name].get("backend", "?")
        if backend == "reference":
            # the preserved pre-engine path: timed for the speedup ledger,
            # not a product path — informational only
            lines.append(
                f"{name} [reference]: committed {old * 1e3:.1f}ms, "
                f"fresh {new * 1e3:.1f}ms ({ratio:.2f}x, not guarded)"
            )
            continue
        worst = max(worst, ratio)
        lines.append(
            f"{name} [{backend}]: committed {old * 1e3:.1f}ms, "
            f"fresh {new * 1e3:.1f}ms ({ratio:.2f}x)"
        )
    for name in sorted(set(new_entries) - set(old_entries)):
        lines.append(f"{name}: new bench (no committed baseline) — recorded only")
    if worst == 0.0:
        lines.append("no overlapping benches; nothing to compare")
    return worst, lines


def compare_ondisk(committed: dict, fresh: dict) -> tuple[float, list[str]]:
    """Streaming seconds ratio for BENCH_ondisk.json (``{"streaming": ...}``)."""
    old = committed["streaming"]["seconds"]
    new = fresh["streaming"]["seconds"]
    ratio = new / old
    lines = [
        f"streaming partition: committed {old:.2f}s, fresh {new:.2f}s ({ratio:.2f}x)",
        f"fresh overhead vs in-memory: {fresh['streaming_overhead']:.2f}x "
        f"(committed {committed['streaming_overhead']:.2f}x)",
        f"streaming supersteps: committed {committed['streaming']['supersteps']}, "
        f"fresh {fresh['streaming']['supersteps']}",
    ]
    return ratio, lines


def compare(committed: dict, fresh: dict, threshold: float) -> tuple[float, list[str]]:
    """Schema-dispatching comparison (kept for callers of the old name)."""
    if "entries" in committed or "entries" in fresh:
        return compare_kernels(committed, fresh)
    if "streaming" in committed or "streaming" in fresh:
        return compare_ondisk(committed, fresh)
    return compare_balance(committed, fresh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("committed",
                        help="baseline BENCH_balance.json / BENCH_kernels.json (committed trajectory)")
    parser.add_argument("fresh", nargs="?", default=None,
                        help="freshly measured benchmark JSON (same schema; default: "
                             "benchmarks/results/fresh/<basename of committed>)")
    parser.add_argument(
        "--threshold", type=float, default=1.2,
        help="fail when fresh/committed phase time exceeds this ratio (default 1.2)",
    )
    args = parser.parse_args(argv)
    if args.fresh is None:
        args.fresh = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "results", "fresh", os.path.basename(args.committed))
    if not os.path.exists(args.fresh):
        print(f"no fresh measurement at {args.fresh}; run the benches first")
        return 0
    with open(args.committed) as fh:
        committed = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)
    ratio, lines = compare(committed, fresh, args.threshold)
    for line in lines:
        print(line)
    if ratio > args.threshold:
        if "entries" in fresh:
            what = "sweep kernels"
        elif "streaming" in fresh:
            what = "streaming partition"
        else:
            what = "balance phase"
        message = f"{what} regressed {ratio:.2f}x vs committed trajectory"
        if os.environ.get("GITHUB_ACTIONS"):
            print(f"::warning::{message}")
        else:
            print(f"WARNING: {message}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
