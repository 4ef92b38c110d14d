"""Regression gate: compare two directories of ``run.py`` results.

    python benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR [--claim METRIC@WORKLOAD ...]
    python benchmarks/e2e/compare.py --summarize DIR

For every workload and every end-to-end metric of ``BENCHMARK.json`` it
prints both sides' median and quartiles over the untraced runs, and a
verdict:

- ``REGRESSION`` — the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved`` — the parent's interquartile range exceeds the bound, so a
  difference cannot be told from noise, unless every change run beats every
  parent run;
- ``ok`` otherwise.

The workload's own numbers that are not end-to-end metrics (the service's
latency per request kind, ``migration_fraction``, ledger times, ...) follow
as ``info`` rows: medians, quartiles and the relative change, no verdict.

A ``--claim`` is met only with at least ten pairs of runs (paired by seed,
alternating which side ran first), the change winning at least nine tenths
of them (ties count for neither side) and the gap between the medians
exceeding the parent's interquartile range.  The exit code is 1 on any
regression, unmet claim, or a higher failed fraction than the parent's.

``--summarize DIR`` prints the median and quartiles of every metric per
workload as JSON (how ``baseline.json`` is made).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: str) -> dict[str, list[dict]]:
    """Untraced results per workload, oldest first."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(record, dict) or "workload" not in record or record.get("env", {}).get("trace"):
            continue
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r.get("time", 0.0))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def values_of(records: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records if metric in r.get("metrics", {})]


def extras_of(records: list[dict], key: str) -> list[float]:
    """A workload's own numbers (service latencies per request kind, migration, ...)."""
    return [r["result"]["extra"][key] for r in records if key in r["result"].get("extra", {})]


def extra_keys(records: list[dict]) -> set[str]:
    return {key for r in records for key in r["result"].get("extra", {})}


def failed_fraction(records: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def better(a: float, b: float, direction: str) -> bool:
    """True when ``a`` is strictly better than ``b``."""
    return a < b if direction == "lower" else a > b


def verdict(parent: list[float], change: list[float], spec: dict) -> tuple[str, float]:
    """(verdict, relative change of the median, positive = worse)."""
    q1, med, q3 = quartiles(parent)
    cmed = statistics.median(change)
    worse = (cmed - med) / med if spec["better"] == "lower" else (med - cmed) / med
    if (q3 - q1) / med > spec["bound"]:
        every_better = all(better(c, p, spec["better"]) for c in change for p in parent)
        return ("ok" if every_better else "unresolved"), worse
    return ("REGRESSION" if worse > spec["bound"] else "ok"), worse


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Runs paired by seed, in order of running."""
    by_seed: dict[int, list[dict]] = {}
    for record in change:
        by_seed.setdefault(record["env"]["seed"], []).append(record)
    out = []
    for record in parent:
        match = by_seed.get(record["env"]["seed"])
        if match:
            out.append((record, match.pop(0)))
    return out


def judge_claim(claim: str, parent_runs: dict, change_runs: dict, specs: dict) -> tuple[bool, str]:
    metric, _, workload = claim.partition("@")
    if metric not in specs or workload not in parent_runs or workload not in change_runs:
        return False, f"claim {claim}: no such metric or workload in both result sets"
    direction = specs[metric]["better"]
    matched = pairs(parent_runs[workload], change_runs[workload])
    wins = sum(1 for p, c in matched
               if better(c["metrics"][metric]["value"], p["metrics"][metric]["value"], direction))
    parent_first = sum(1 for p, c in matched if p.get("time", 0.0) < c.get("time", 0.0))
    q1, pmed, q3 = quartiles(values_of(parent_runs[workload], metric))
    cmed = statistics.median(values_of(change_runs[workload], metric))
    gap = (pmed - cmed) if direction == "lower" else (cmed - pmed)
    reasons = []
    if len(matched) < MIN_PAIRS:
        reasons.append(f"{len(matched)} pairs < {MIN_PAIRS}")
    if wins < WIN_SHARE * len(matched):
        reasons.append(f"won {wins}/{len(matched)} pairs")
    if abs(2 * parent_first - len(matched)) > 1:
        reasons.append(f"parent ran first in {parent_first}/{len(matched)} pairs (not alternating)")
    if gap <= q3 - q1:
        reasons.append(f"median gap {gap:.6g} <= parent IQR {q3 - q1:.6g}")
    status = "CLAIM MET" if not reasons else "CLAIM NOT MET: " + "; ".join(reasons)
    return not reasons, (f"{claim}: {status} (wins {wins}/{len(matched)}, parent median {pmed:.6g}, "
                         f"change median {cmed:.6g})")


def summarize(directory: str, specs: dict) -> dict:
    out = {}
    for workload, records in sorted(load_runs(directory).items()):
        entry = {"runs": len(records), "seeds": sorted({r["env"]["seed"] for r in records}),
                 "env": {k: v for k, v in records[-1]["env"].items() if k != "seed"},
                 "failed_fraction": failed_fraction(records)}
        for metric, spec in specs.items():
            values = values_of(records, metric)
            if values:
                q1, med, q3 = quartiles(values)
                entry[metric] = {"median": med, "q1": q1, "q3": q3, "unit": spec["unit"]}
        extra = {}
        for key in sorted(extra_keys(records)):
            q1, med, q3 = quartiles(extras_of(records, key))
            extra[key] = {"median": med, "q1": q1, "q3": q3}
        entry["extra"] = extra
        out[workload] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="*", help="PARENT_DIR CHANGE_DIR")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD")
    parser.add_argument("--summarize", metavar="DIR", help="print medians and quartiles of DIR as JSON")
    args = parser.parse_args(argv)
    specs = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    if args.summarize:
        print(json.dumps(summarize(args.summarize, specs), indent=1))
        return 0
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR (or --summarize DIR)")
    parent_runs, change_runs = load_runs(args.dirs[0]), load_runs(args.dirs[1])
    failing = False
    header = f"{'workload':<14} {'metric':<17} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'worse':>8}  verdict"
    print(header)
    for workload in sorted(set(parent_runs) | set(change_runs)):
        if workload not in parent_runs or workload not in change_runs:
            print(f"{workload:<14} only in {'parent' if workload in parent_runs else 'change'} results")
            continue
        parent, change = parent_runs[workload], change_runs[workload]
        for metric, spec in specs.items():
            pv, cv = values_of(parent, metric), values_of(change, metric)
            if not pv or not cv:
                print(f"{workload:<14} {metric:<17} missing")
                failing = True
                continue
            status, worse = verdict(pv, cv, spec)
            failing |= status == "REGRESSION"
            p = "/".join(f"{v:.4g}" for v in quartiles(pv))
            c = "/".join(f"{v:.4g}" for v in quartiles(cv))
            print(f"{workload:<14} {metric:<17} {p:>32} {c:>32} {worse:>+8.1%}  {status}"
                  f"  (n={len(pv)}/{len(cv)}, bound {spec['bound']:.0%})")
        pf, cf = failed_fraction(parent), failed_fraction(change)
        flag = "REGRESSION" if cf > pf else "ok"
        failing |= cf > pf
        print(f"{workload:<14} {'failed_fraction':<17} {pf:>32.4g} {cf:>32.4g} {'':>8}  {flag}")
        for key in sorted(extra_keys(parent) & extra_keys(change)):
            pv, cv = extras_of(parent, key), extras_of(change, key)
            p = "/".join(f"{v:.4g}" for v in quartiles(pv))
            c = "/".join(f"{v:.4g}" for v in quartiles(cv))
            pmed = statistics.median(pv)
            moved = (statistics.median(cv) - pmed) / pmed if pmed else 0.0
            print(f"{workload:<14} {key:<17} {p:>32} {c:>32} {moved:>+8.1%}  info")
    for claim in args.claim:
        met, line = judge_claim(claim, parent_runs, change_runs, specs)
        failing |= not met
        print(line)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
