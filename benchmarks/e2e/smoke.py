"""Smoke check of the end-to-end benchmark: every workload at ``--size smoke``.

    python benchmarks/e2e/smoke.py

Runs ``run.py`` over all five workloads once untraced and once traced and
checks what the benchmark promises: every metric of ``BENCHMARK.json`` with
its unit, no failed operation or check, per-layer self times that add up to
the wall time, Chrome traces that parse, and no shared-memory segment or
server process left behind.  Prints the problems and exits 1 if any check
fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from trace import DRIVER_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Workloads whose residual is accounted in the benchmark process alone.
IN_PROCESS = ("mesh-cold", "front-warm", "dist-process", "ondisk-stream")


def segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def servers() -> set[int]:
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            cmdline = (Path("/proc") / entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if b"serve" in cmdline or any(part.endswith(b"traced_serve.py") for part in cmdline):
            found.add(int(entry))
    return found


def run(out: Path, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "smoke", "--seconds", "0.3",
         "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(extra)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_times(events: list[dict]) -> list[float]:
    """Self time of each event from interval containment on its thread.

    This recomputes from the trace file what ``trace.self_times`` derives
    from recorded parent links, so the two are checked against each other.
    """
    order = sorted(range(len(events)), key=lambda i: (events[i]["tid"], events[i]["ts"], -events[i]["dur"]))
    child = [0.0] * len(events)
    stack: list[int] = []
    last_tid = None
    for i in order:
        event = events[i]
        if event["tid"] != last_tid:
            stack, last_tid = [], event["tid"]
        while stack and events[stack[-1]]["ts"] + events[stack[-1]]["dur"] <= event["ts"]:
            stack.pop()
        if stack:
            child[stack[-1]] += event["dur"]
        stack.append(i)
    return [e["dur"] - c for e, c in zip(events, child)]


def check_metrics(line: dict, section: str, bench: dict, workloads: list[str]) -> list[str]:
    problems = []
    if line["correct"] is not True or line["failed"] != 0 or line["attempted"] < 1:
        problems.append(f"{section}: correct={line['correct']} failed={line['failed']} "
                        f"attempted={line['attempted']}")
    for workload in workloads:
        for spec in bench[section]:
            key = f"{workload}/{spec['name']}"
            got = line["metrics"].get(key)
            if got is None or got.get("unit") != spec["unit"] or not isinstance(got.get("value"), (int, float)):
                problems.append(f"{section}: {key} missing or without unit {spec['unit']!r}: {got}")
    return problems


def check_residual(result: dict) -> list[str]:
    """Named self times plus ``residual_s`` must equal the wall time of a traced operation."""
    trace = json.loads(Path(result["trace_file"]).read_text())
    pid = min(e["pid"] for e in trace["traceEvents"] if e.get("cat") == "bench")
    events = [e for e in trace["traceEvents"] if e["ph"] == "X" and e["pid"] == pid]
    ops = [e for e in events if e["cat"] == "bench" and e["args"]["op"] >= 0]
    traced = {e["args"]["op"] for e in ops}
    layers = [e for e in events if e["cat"] != "bench" and e["args"]["op"] in traced]
    named = sum(s for e, s in zip(layers, self_times(layers)) if e["cat"] not in DRIVER_LAYERS)
    wall = sum(e["dur"] for e in ops) / len(ops) / 1e6
    total = named / len(ops) / 1e6 + result["per_layer"]["residual_s"]
    if abs(total - wall) > 0.01 * wall:
        return [f"{result['workload']}: self times + residual {total:.6f} s != wall {wall:.6f} s"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    before = (segments(), servers())
    base = ROOT / ".bench_tmp" / f"smoke-{os.getpid()}"
    t0 = time.perf_counter()
    try:
        plain = run(base / "plain")
        traced = run(base / "traced", "--trace", "1")
        problems = check_metrics(plain, "end_to_end", bench, workloads)
        problems += check_metrics(traced, "per_layer", bench, workloads)
        results = {r["workload"]: r["result"] for r in
                   (json.loads(p.read_text()) for p in (base / "traced").glob("*-seed*.json"))}
        for workload in IN_PROCESS:
            problems += check_residual(results[workload])
        for workload in workloads:
            path = base / "traced" / f"{workload}.trace.json"
            events = json.loads(path.read_text()).get("traceEvents")
            if not isinstance(events, list) or not events:
                problems.append(f"{path.name} has no traceEvents")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    leaked = segments() - before[0]
    if leaked:
        problems.append(f"shared-memory segments left behind: {sorted(leaked)}")
    running = servers() - before[1]
    if running:
        problems.append(f"server processes left running: {sorted(running)}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(f"smoke: {'FAILED' if problems else 'ok'} in {time.perf_counter() - t0:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
