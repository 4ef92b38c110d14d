"""The repository's end-to-end benchmark: one command, five workloads.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                 [--trace 0|1] [--size full|smoke] [--out DIR]

Run from the repository root.  Each workload runs in a fresh process with
BLAS pinned to one thread; its inputs are generated from ``--seed`` first,
outside every metric.  Without ``--workload`` all five run in turn.

``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` installs the span wrappers of
``trace.py``, alternates traced and untraced operations, reports the
per-layer metrics and writes ``OUT/<workload>.trace.json`` (Chrome
trace-event JSON, which Perfetto opens).  Every run writes one results JSON
to ``--out`` (default ``.bench_results/``); ``compare.py`` compares two
directories of them.  A human-readable table goes to standard error; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: A workload process that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 160.0


def fail(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def wait_group(pgid: int, seconds: float) -> bool:
    """Wait until a process group is empty; True if it emptied in time."""
    deadline = time.monotonic() + seconds
    while group_alive(pgid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def stop_group(pgid: int) -> bool:
    """Stop what is left of a workload's process group; True if anything had to be killed.

    multiprocessing's resource tracker exits by itself shortly after its
    last client, so the group gets a grace period before the kill.
    """
    if wait_group(pgid, 5.0):
        return False
    os.killpg(pgid, signal.SIGKILL)
    wait_group(pgid, 10.0)
    return True


def environment(seed: int, size: str, seconds: float, trace: bool) -> dict:
    import numpy

    from repro.core.xp import available_kernel_backends

    sha = "unknown"  # a checkout without .git (git would search the parent directories)
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=False).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backends": list(available_kernel_backends()),
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
    }


def run_workload(name: str, args, scratch: Path) -> tuple[dict | None, list[str]]:
    """Generate inputs, run the workload process, return its result and run-level problems."""
    import workloads

    scratch.mkdir(parents=True)
    inputs = scratch / "inputs.npz"
    workloads.generate(name, args.seed, args.size, str(inputs))
    spec = {
        "workload": name, "seed": args.seed, "size": args.size, "seconds": args.seconds,
        "trace": bool(args.trace), "scratch": str(scratch), "inputs": str(inputs),
        "result": str(scratch / "result.json"), "flag": str(scratch / "trace.flag"),
        "trace_out": str(Path(args.out) / f"{name}.trace.json"),
    }
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    # TMPDIR keeps any temporary file of the program inside the scratch directory
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(SRC), TMPDIR=str(scratch))
    segments = shm_segments()
    spec["t_spawn"] = time.perf_counter()
    (scratch / "spec.json").write_text(json.dumps(spec))
    child = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), str(scratch / "spec.json")],
                             cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    problems = []
    try:
        child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        problems.append(f"{name} ran longer than {CHILD_TIMEOUT_S:.0f} s and was killed")
    except BaseException:  # interrupted: take the workload's processes down too
        if group_alive(child.pid):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if stop_group(child.pid):
        problems.append(f"{name} left processes running")
    child.wait()
    leaked = shm_segments() - segments
    if leaked:
        problems.append(f"{name} left shared-memory segments {sorted(leaked)}")
    result_path = Path(spec["result"])
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    if result is None:
        problems.append(f"{name} produced no result (exit code {child.returncode})")
    return result, problems


def metric_values(result: dict, trace: bool) -> dict[str, float]:
    if trace:
        return dict(result.get("per_layer", {}))
    return {key: result.get(key) for key in
            ("setup_s", "op_ms_p50", "throughput_per_s", "peak_rss_mb", "comm_volume")}


def print_table(name: str, result: dict, metrics: dict, catalog: dict) -> None:
    out = sys.stderr
    print(f"\n== {name}  seed={result['seed']} size={result['size']} trace={int(result['trace'])}"
          f"  attempted={result['attempted']} failed={result['failed']}", file=out)
    samples = {"setup_s": len(result.get("setup_reps_s", [])), "op_ms_p50": result.get("ops"),
               "throughput_per_s": result.get("ops")}
    for key, value in metrics.items():
        unit = catalog.get(key, {}).get("unit", "")
        n = samples.get(key)
        print(f"  {key:<24} {value:>14.6g} {unit:<9}" + (f" n={n}" if n else ""), file=out)
    for section in ("extra", "detail"):
        for key, value in sorted(result.get(section, {}).items()):
            print(f"  {key:<24} {value:>14.6g}   ({section})", file=out)
    for failure in result.get("failures", [])[:5]:
        print(f"  FAILED: {failure}", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", default=str(ROOT / ".bench_results"))
    args = parser.parse_args(argv)
    # a terminated run still stops its workload processes and removes its scratch
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").exists():
        return fail(f"no program to measure: {SRC / 'repro'} is missing")
    if not bench_path.exists():
        return fail(f"{bench_path} is missing")
    bench = json.loads(bench_path.read_text())
    catalog = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        return fail(f"cannot import the program: {exc}")
    names = [args.workload] if args.workload else list(workloads.NAMES)
    unknown = [n for n in names if n not in workloads.NAMES]
    if unknown:
        return fail(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.NAMES)}")
    wanted = [m["name"] for m in (bench["per_layer"] if args.trace else bench["end_to_end"])]
    Path(args.out).mkdir(parents=True, exist_ok=True)
    env = environment(args.seed, args.size, args.seconds, bool(args.trace))

    attempted = failed = 0
    correct = True
    line_metrics: dict[str, dict] = {}
    for name in names:
        scratch = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
        try:
            result, problems = run_workload(name, args, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if result is None:
            for problem in problems:
                print(f"run.py: {problem}", file=sys.stderr)
            return 1
        values = metric_values(result, bool(args.trace))
        missing = [m for m in wanted if not isinstance(values.get(m), (int, float))
                   or not math.isfinite(values[m])]
        if missing:
            print(f"run.py: {name} did not measure {', '.join(missing)}", file=sys.stderr)
            for failure in result.get("failures", [])[:5]:
                print(f"  {failure}", file=sys.stderr)
            return 1
        metrics = {m: values[m] for m in wanted}
        print_table(name, result, metrics, catalog)
        attempted += int(result["attempted"]) + len(problems)
        failed += int(result["failed"]) + len(problems)
        correct &= not problems and result["failed"] == 0
        for problem in problems:
            print(f"run.py: {problem}", file=sys.stderr)
        record = {
            "workload": name, "env": env, "time": time.time(), "correct": not problems and result["failed"] == 0,
            "attempted": int(result["attempted"]) + len(problems),
            "failed": int(result["failed"]) + len(problems),
            "metrics": {m: {"value": v, "unit": catalog[m]["unit"]} for m, v in metrics.items()},
            "result": result, "problems": problems,
        }
        stamp = time.strftime("%Y%m%dT%H%M%S")
        out = Path(args.out) / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
        out.write_text(json.dumps(record, indent=1))
        prefix = "" if args.workload else f"{name}/"
        line_metrics.update({f"{prefix}{m}": {"value": v, "unit": catalog[m]["unit"]}
                             for m, v in metrics.items()})
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": line_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
