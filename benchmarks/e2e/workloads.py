"""The five end-to-end workloads: inputs, set-up, timed operations, checks.

``run.py`` generates each workload's inputs with :func:`generate` and then
runs the workload in a fresh process::

    python benchmarks/e2e/workloads.py SPEC.json

The spec names the workload, seed, size, measure time, whether to trace,
the input file and where to write the result.  The process sets up the
workload several times (construction plus one untimed warm-up operation),
runs timed operations until the measure time is spent, checks every output
against an independent recomputation, and writes one result JSON.

The seed picks the order in which a workload's fixed problem is presented
(see :func:`generate`); the partitioner's own seed is fixed.  So every
timed operation of a batch workload repeats the same work — which is how
every run checks that repeated calls give identical assignments — and two
runs differ only by the host.

Every workload uses the numpy kernel with ``n_threads=1``; ``run.py`` pins
BLAS to one thread.  Input generation is the benchmark's own work and is
excluded from every metric.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from repro.core.balanced_kmeans import compute_sfc_order
from repro.core.config import BalancedKMeansConfig
from repro.core.kernels import SweepWorkspace
from repro.io.sharded import write_sharded
from repro.mesh.delaunay import delaunay_mesh
from repro.mesh.graph import GeometricMesh
from repro.mesh.registry import make_instance
from repro.metrics.commvolume import max_comm_volume, total_comm_volume
from repro.partitioners.geographer import GeographerPartitioner
from repro.runtime.comm import make_comm
from repro.runtime.distributed_kmeans import distributed_balanced_kmeans
from repro.runtime.ondisk import ondisk_distributed_kmeans
from repro.runtime.shuffle import shuffle_to_disk, verify_shuffle
from repro.service.client import ServiceClient
from repro.service.resilience import RetryPolicy

HERE = Path(__file__).resolve().parent
EPS = 0.03
#: Set-ups per run; ``setup_s`` is the median.
SETUP_REPS = 3
#: Timed operations per run even when the measure time is already spent.
MIN_OPS = 4

perf = time.perf_counter

#: Problem sizes.  ``full`` is what BENCHMARK.json measures; ``smoke`` is a
#: seconds-long pass for ``smoke.py``.
SIZES = {
    "mesh-cold": {
        # fesom at 1.5: its heaviest column stays below ε of a block, so every
        # partitioner seed can balance
        "full": {"instances": [["delaunay2d_l", 0.25], ["fesom_f2glo", 1.5], ["alyaB", 0.4]], "k": 64},
        "smoke": {"instances": [["delaunay2d_l", 0.02], ["fesom_f2glo", 0.1], ["alyaB", 0.05]], "k": 8},
    },
    "front-warm": {"full": {"n": 100_000, "k": 64}, "smoke": {"n": 2_000, "k": 8}},
    "dist-process": {"full": {"n": 60_000, "k": 32, "p": 2}, "smoke": {"n": 2_000, "k": 8, "p": 2}},
    "ondisk-stream": {"full": {"n": 20_000, "k": 16, "p": 4}, "smoke": {"n": 2_000, "k": 4, "p": 2}},
    "service-mixed": {"full": {"n": 50_000, "k": 16}, "smoke": {"n": 2_000, "k": 4}},
}
NAMES = tuple(SIZES)


# -- inputs ------------------------------------------------------------------------


def base_meshes(name: str, size: str) -> list[GeometricMesh]:
    """The workload's fixed problem: named registry meshes or uniform points."""
    params = SIZES[name][size]
    if name == "mesh-cold":
        return [make_instance(instance, scale=scale, seed=0) for instance, scale in params["instances"]]
    # uniform points; their Delaunay graph only serves the quality metric
    rng = np.random.default_rng(NAMES.index(name))
    n = params["n"]
    points = rng.random((n, 2))
    if name == "ondisk-stream":
        weights = 0.5 + rng.random(n)  # non-integer weights take the float path
    else:
        weights = rng.integers(1, 4, n).astype(np.float64)
    mesh = delaunay_mesh(n, points=points)
    mesh.node_weights = weights
    return [mesh]


def generate(name: str, seed: int, size: str, path: str) -> None:
    """Write the inputs of ``name`` for ``seed`` to the ``.npz`` file ``path``.

    The seed presents the workload's fixed problem in its own vertex order.
    New geometry per seed would move the work itself: over four uniform
    point sets (n=100k, k=64) a cold partition's sweep count varied by 4 %
    and its point evaluations by 7 %, spread that would measure the inputs
    rather than the program.  A new order changes every array the program
    receives and which rank holds which points, and leaves the work the
    same.
    """
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for i, mesh in enumerate(base_meshes(name, size)):
        perm = rng.permutation(mesh.n)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(mesh.n)
        shuffled = GeometricMesh.from_edges(mesh.coords[perm], inverse[mesh.edge_array()],
                                            node_weights=mesh.node_weights[perm])
        arrays.update({f"coords{i}": shuffled.coords, f"weights{i}": shuffled.node_weights,
                       f"indptr{i}": shuffled.indptr, f"indices{i}": shuffled.indices})
    np.savez(path, **arrays)


def load_meshes(path: str) -> list[GeometricMesh]:
    with np.load(path) as data:
        count = sum(1 for key in data.files if key.startswith("coords"))
        return [GeometricMesh(data[f"coords{i}"], data[f"indptr{i}"], data[f"indices{i}"],
                              data[f"weights{i}"]) for i in range(count)]


# -- independent checks and process accounting ---------------------------------------


def balance_failure(assignment: np.ndarray, weights: np.ndarray, k: int) -> list[str]:
    """Recompute balance from the assignment itself: at most ε imbalance, k non-empty blocks."""
    a = np.asarray(assignment)
    if a.shape != weights.shape or a.min() < 0 or a.max() >= k:
        return [f"assignment has shape {a.shape} or labels outside [0, {k})"]
    block = np.bincount(a, weights=weights, minlength=k)
    problems = []
    if np.count_nonzero(block) != k:
        problems.append(f"{k - np.count_nonzero(block)} empty blocks")
    imbalance = block.max() / (weights.sum() / k) - 1.0
    if imbalance > EPS + 1e-9:
        problems.append(f"imbalance {imbalance:.5f} > {EPS}")
    return problems


def _vmhwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Peak RSS of this process plus every live descendant (workers, server), in MiB."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    total, todo = 0, [os.getpid()]
    while todo:
        pid = todo.pop()
        total += _vmhwm_kib(pid)
        todo.extend(children.get(pid, ()))
    return total / 1024.0


def proc_io() -> dict[str, int]:
    """This process's I/O counters: syscall bytes (``rchar``/``wchar``), block-layer writes."""
    out = {}
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                key, value = line.split(":")
                out[key] = int(value)
    except OSError:
        pass
    return out


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def p90(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else float("nan")
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


# -- workloads -----------------------------------------------------------------------


class Workload:
    """One workload.

    ``setup`` builds the program state and runs the warm-up, ``op`` is one
    timed operation (``i = -1`` is the warm-up) and ``check`` verifies its
    output, untimed, returning the problems found.
    """

    name = ""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.seed = int(spec["seed"])
        self.params = SIZES[self.name][spec["size"]]
        self.scratch = Path(spec["scratch"])
        self.meshes = load_meshes(spec["inputs"])
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.extra: dict[str, float] = {}
        self.op_records: list[dict] = []
        self.reference = None
        self.volumes: list[float] = []

    # hooks ------------------------------------------------------------------
    def setup(self, rep: int) -> dict:
        raise NotImplementedError

    def op(self, state: dict, i: int):
        raise NotImplementedError

    def check(self, state: dict, out, record: dict) -> list[str]:
        return []

    def finish(self, state: dict) -> None:
        """End-of-run checks and extra numbers (untimed)."""

    def teardown(self, state: dict) -> None:
        """Stop every process and remove the files this set-up made."""

    def movement(self, busy: dict, extras: dict, n_ops: int) -> float:
        """Data-movement seconds per traced operation (``movement.busy_s``).

        For the serial paths this is the permutation into SFC order that
        ``balanced_kmeans`` times as its ``redistribute`` stage.
        """
        return extras["stages"].get("redistribute", 0.0) / n_ops

    # bookkeeping ---------------------------------------------------------------
    def summary(self, times: list[float], done: int, wall: float) -> dict:
        """Median operation time, throughput and the partition quality."""
        return {"op_ms_p50": median(times) * 1e3, "throughput_per_s": done / wall,
                "ops": len(times), "comm_volume": median(self.volumes)}

    def outcome(self, what: str, problems: list[str]) -> None:
        """Count one attempted operation; it failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {p}" for p in problems)

    def repeatable(self, assignment) -> list[str]:
        """Every call must reproduce the first call's assignment exactly."""
        if self.reference is None:
            self.reference = assignment
            return []
        pairs = zip(assignment, self.reference) if isinstance(assignment, list) else [
            (assignment, self.reference)]
        if all(np.array_equal(a, b) for a, b in pairs):
            return []
        return ["assignment differs from the first call"]

    def warm_up(self, state: dict) -> None:
        """One untimed operation, checked like a timed one."""
        self.outcome("warm-up", self.check(state, self.op(state, -1), {"i": -1, "traced": False}))

    def measure(self, state: dict, seconds: float) -> None:
        """Run timed operations until ``seconds`` have passed.

        When tracing, odd operations are traced and even ones are not, so the
        same process measures the tracing overhead.
        """
        deadline = perf() + seconds
        i = 0
        while i < MIN_OPS or perf() < deadline:
            traced = self.tracer is not None and i % 2 == 1
            if traced:
                self.tracer.set_op(i)
            t0 = perf()
            try:
                out = self.op(state, i)
            except Exception:
                self.outcome(f"op {i}", [f"raised:\n{traceback.format_exc()}"])
                return
            finally:
                t1 = perf()
                if traced:
                    self.tracer.set_op(-1)
            if self.tracer is not None:
                self.tracer.record("op", "bench", t0, t1, i if traced else -1, {"i": i})
            record = {"i": i, "traced": traced, "s": t1 - t0}
            self.outcome(f"op {i}", self.check(state, out, record))
            self.op_records.append(record)
            i += 1

    def op_metrics(self) -> dict:
        """End-to-end numbers from the untraced operations."""
        times = [r["s"] for r in self.op_records if not r["traced"]]
        return self.summary(times, len(times), sum(times))


class MeshCold(Workload):
    """Serial cold partitioning of three registry meshes (2-D, weighted 2.5-D, 3-D)."""

    name = "mesh-cold"

    def setup(self, rep: int) -> dict:
        state = {"partitioner": GeographerPartitioner()}
        self.warm_up(state)
        return state

    def op(self, state: dict, i: int):
        k = self.params["k"]
        return [state["partitioner"].partition_mesh(mesh, k, EPS, rng=0).assignment
                for mesh in self.meshes]

    def check(self, state: dict, out, record: dict) -> list[str]:
        k = self.params["k"]
        problems = [f"mesh {j}: {p}" for j, (mesh, a) in enumerate(zip(self.meshes, out))
                    for p in balance_failure(a, mesh.node_weights, k)]
        return problems + self.repeatable(out)

    def finish(self, state: dict) -> None:
        k = self.params["k"]
        pairs = list(zip(self.meshes, self.reference))
        self.volumes.append(float(sum(total_comm_volume(m, a, k) for m, a in pairs)))
        self.extra["comm_volume_max"] = float(sum(max_comm_volume(m, a, k) for m, a in pairs))


class FrontWarm(Workload):
    """Warm repartitioning steps while a weighted hot spot moves across the domain."""

    name = "front-warm"
    #: Side of the square hot spot (0.2 % of the unit square).
    HOT_SIDE = 0.002 ** 0.5

    def __init__(self, spec: dict) -> None:
        super().__init__(spec)
        mesh = self.meshes[0]
        self.points, self.base = mesh.coords, mesh.node_weights
        self.migrations: list[float] = []

    def step_weights(self, step: int) -> np.ndarray:
        cx = 0.05 + 0.9 * ((0.07 * step) % 1.0)
        hot = ((np.abs(self.points[:, 0] - cx) < self.HOT_SIDE / 2)
               & (np.abs(self.points[:, 1] - 0.5) < self.HOT_SIDE / 2))
        return self.base * np.where(hot, 4.0, 1.0)

    def setup(self, rep: int) -> dict:
        # the service's warm state: SFC order and workspace built once per point set
        k = self.params["k"]
        config = BalancedKMeansConfig()
        order = compute_sfc_order(self.points, config)
        workspace = SweepWorkspace(np.ascontiguousarray(self.points[order]), config, k)
        partitioner = GeographerPartitioner(config=config, workspace=workspace, sfc_order=order)
        cold = partitioner.partition(self.points, k, self.step_weights(0), EPS, rng=0)
        self.outcome("cold partition", balance_failure(cold.assignment, self.step_weights(0), k))
        state = {"partitioner": partitioner, "previous": cold, "step": 0}
        self.warm_up(state)
        return state

    def op(self, state: dict, i: int):
        state["step"] += 1
        step = state["step"]
        weights = self.step_weights(step)
        result = state["partitioner"].repartition(
            state["previous"], self.points, self.params["k"], weights, EPS, rng=step)
        previous, state["previous"] = state["previous"], result
        return previous.assignment, result.assignment, weights

    def check(self, state: dict, out, record: dict) -> list[str]:
        before, after, weights = out
        k = self.params["k"]
        if record["i"] >= 0:
            self.migrations.append(float(weights[before != after].sum() / weights.sum()))
            self.volumes.append(float(total_comm_volume(self.meshes[0], after, k)))
        return balance_failure(after, weights, k)

    def finish(self, state: dict) -> None:
        self.extra["migration_fraction"] = median(self.migrations)


class LedgerDelta:
    """Per-call difference of a reused communicator's cumulative ``CostLedger``."""

    def __init__(self, ledger) -> None:
        self.ledger = ledger
        self.before = self._copy()

    def _copy(self) -> dict:
        led = self.ledger
        return {"stages": dict(led.stages), "collectives": dict(led.collectives),
                "counts": dict(led.collective_counts), "supersteps": led.supersteps,
                "comm_s": led.comm_seconds}

    def delta(self) -> dict:
        now, then = self._copy(), self.before
        out = {"supersteps": now["supersteps"] - then["supersteps"],
               "comm_s": now["comm_s"] - then["comm_s"]}
        for group in ("stages", "collectives", "counts"):
            out[group] = {key: value - then[group].get(key, 0) for key, value in now[group].items()}
        return out


class DistProcess(Workload):
    """``distributed_balanced_kmeans`` on the process backend, one communicator reused."""

    name = "dist-process"

    def setup(self, rep: int) -> dict:
        state = {"comm": make_comm(self.params["p"], backend="process")}
        self.warm_up(state)
        return state

    def op(self, state: dict, i: int):
        mesh = self.meshes[0]
        ledger = LedgerDelta(state["comm"].ledger)
        result = distributed_balanced_kmeans(
            mesh.coords, self.params["k"], self.params["p"], weights=mesh.node_weights,
            rng=0, comm=state["comm"])
        return result.assignment, ledger.delta()

    def check(self, state: dict, out, record: dict) -> list[str]:
        assignment, ledger = out
        mesh, k = self.meshes[0], self.params["k"]
        record["ledger"] = ledger
        return balance_failure(assignment, mesh.node_weights, k) + self.repeatable(assignment)

    def finish(self, state: dict) -> None:
        self.volumes.append(float(total_comm_volume(self.meshes[0], self.reference, self.params["k"])))
        ledgers = [r["ledger"] for r in self.op_records if not r["traced"]]
        pick = {
            "ledger.sfc_index_s": lambda d: d["stages"].get("sfc_index", 0.0),
            "ledger.redistribute_s": lambda d: d["stages"].get("redistribute", 0.0),
            "ledger.kmeans_s": lambda d: d["stages"].get("kmeans", 0.0),
            "comm.dispatch_s": lambda d: d["collectives"].get("dispatch", 0.0),
            "comm.dispatch_count": lambda d: d["counts"].get("dispatch", 0),
            "comm.collective_s": lambda d: d["comm_s"] - d["collectives"].get("dispatch", 0.0),
            "comm.allreduce_count": lambda d: d["counts"].get("allreduce", 0),
            "comm.supersteps": lambda d: d["supersteps"],
        }
        for key, get in pick.items():
            self.extra[key] = median([get(d) for d in ledgers])

    def teardown(self, state: dict) -> None:
        state["comm"].close()

    def movement(self, busy: dict, extras: dict, n_ops: int) -> float:
        # dispatch, serialisation and collectives, as the measured ledger charges them
        return sum(r["ledger"]["comm_s"] for r in self.op_records if r["traced"]) / n_ops


class OndiskStream(Workload):
    """Out-of-core partition, shuffle and conservation check on the virtual backend."""

    name = "ondisk-stream"

    def setup(self, rep: int) -> dict:
        mesh = self.meshes[0]
        root = self.scratch / f"ondisk-{rep}"
        dataset = write_sharded(root / "dataset", mesh.coords, weights=mesh.node_weights,
                                shard_rows=max(1, mesh.n // 8))
        state = {"root": root, "dataset": dataset}
        self.warm_up(state)
        return state

    def op(self, state: dict, i: int):
        spill, out = state["root"] / f"spill-{i}", state["root"] / f"out-{i}"
        io_before = proc_io()
        result = ondisk_distributed_kmeans(state["dataset"], self.params["k"], self.params["p"],
                                           rng=0, spill_dir=spill, backend="virtual")
        report = verify_shuffle(shuffle_to_disk(result, out, backend="virtual"))
        io_after = proc_io()
        io = {key: value - io_before.get(key, 0) for key, value in io_after.items()}
        return result.assignment, report, (spill, out), io

    def check(self, state: dict, out, record: dict) -> list[str]:
        assignment, report, dirs, io = out
        for path in dirs:
            shutil.rmtree(path, ignore_errors=True)
        mesh, k = self.meshes[0], self.params["k"]
        record["io"] = io
        problems = balance_failure(assignment, mesh.node_weights, k)
        if not report.get("conserved") or report.get("n") != mesh.n:
            problems.append(f"verify_shuffle report {report}")
        return problems + self.repeatable(assignment)

    def finish(self, state: dict) -> None:
        self.volumes.append(float(total_comm_volume(self.meshes[0], self.reference, self.params["k"])))
        ios = [r["io"] for r in self.op_records if not r["traced"]]
        mib = 1024.0 * 1024.0
        self.extra["io.read_mb"] = median([d.get("rchar", 0) / mib for d in ios])
        self.extra["io.write_mb"] = median([d.get("wchar", 0) / mib for d in ios])
        self.extra["io.disk_write_mb"] = median([d.get("write_bytes", 0) / mib for d in ios])

    def teardown(self, state: dict) -> None:
        shutil.rmtree(state["root"], ignore_errors=True)

    def movement(self, busy: dict, extras: dict, n_ops: int) -> float:
        return (busy.get("spill", 0.0) + busy.get("exchange", 0.0)) / n_ops


class ServiceMixed(Workload):
    """A partitioning server in its own process, read by one client and written by another.

    Each cycle is one reader round on the reader's connection — a new seed
    (a cache miss) and four repeats of recently read seeds (hits) — followed
    by one step of a repartitioning session on the writer's connection,
    whose weight delta adds 1 to a moving hot spot and removes it on the
    next step.  The two take turns, so reads and writes share the server's
    warm state and compute slot but never queue behind each other: a hit
    then measures the protocol and cache path alone.
    """

    name = "service-mixed"
    #: Hits per miss in a reader round (a hit ratio of exactly 0.8).
    HITS = 4
    #: Hits repeat one of this many most recent seeds, far below the
    #: server's LRU capacity, so a planned hit is never evicted.
    RECENT = 16
    #: Read seeds whose served result is compared with a direct partitioner
    #: call: the first misses of the timed phase, so every run checks (and
    #: measures the comm volume of) the same four partitions.
    CHECKED = (1, 2, 3, 4)
    HOT_SIDE = 0.1

    def __init__(self, spec: dict) -> None:
        super().__init__(spec)
        mesh = self.meshes[0]
        self.points, self.base = mesh.coords, mesh.node_weights
        self.requests: list[dict] = []
        self.cycle = -1
        self.server_dump: dict | None = None

    # -- server process ------------------------------------------------------------
    def setup(self, rep: int) -> dict:
        root = self.scratch / f"service-{rep}"
        root.mkdir(parents=True, exist_ok=True)
        # relative: a unix socket path must stay short wherever the checkout lives
        sock = os.path.relpath(root / "s.sock")
        if self.spec["trace"]:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), sock,
                   "--flag", self.spec["flag"], "--spans", str(root / "server-spans.json")]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", sock]
        cmd += ["--checkpoint-dir", str(root / "checkpoints")]
        state = {"root": root, "proc": subprocess.Popen(cmd, stdout=sys.stderr)}

        def client():
            # no retries: a retried request would hide a failure from the count
            return ServiceClient(sock, connect_timeout=60.0, request_timeout=120.0,
                                 retry=RetryPolicy(max_attempts=1))

        state["control"], state["reader"], state["writer"] = client(), client(), client()
        state["dataset"] = state["control"].register_dataset(self.points, self.base)["dataset_id"]
        state["session"] = state["control"].open_session(
            state["dataset"], self.params["k"], EPS, seed=0)["session_id"]
        state.update(rng=np.random.default_rng([self.seed, 99]), seen=[], first={}, checked={},
                     round=0, step=0, weights=self.base.copy())
        self.reader_round(state)
        self.writer_step(state)
        return state

    def teardown(self, state: dict) -> None:
        for name in ("reader", "writer"):
            state[name].close()
        problems = []
        try:
            state["control"].shutdown()
        except Exception as exc:  # the server may already be gone; it is stopped below
            problems.append(f"{type(exc).__name__}: {exc}")
        state["control"].close()
        proc = state["proc"]
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            problems.append("server did not exit after shutdown")
        self.outcome("server shutdown", problems)
        spans = state["root"] / "server-spans.json"
        if spans.exists():
            self.server_dump = json.loads(spans.read_text())

    # -- the two clients -----------------------------------------------------------
    def _request(self, kind: str, what: str, call, check) -> None:
        """One timed request; ``check(value)`` returns the problems with its result."""
        t0 = perf()
        try:
            value, problems = call(), []
        except Exception as exc:
            value, problems = None, [f"{type(exc).__name__}: {exc}"]
        t1 = perf()
        if value is not None:
            problems = check(value)
        self.requests.append({"kind": kind, "s": t1 - t0, "t1": t1, "ok": not problems,
                              "cycle": self.cycle})
        self.outcome(what, problems)

    def reader_round(self, state: dict) -> None:
        reader, k = state["reader"], self.params["k"]
        seed = state["round"]
        state["round"] += 1
        state["seen"] = (state["seen"] + [seed])[-self.RECENT:]
        first = state["first"]
        for old in [s for s in first if s not in state["seen"]]:
            del first[old]

        def check_miss(result):
            first[seed] = result.assignment
            if seed in self.CHECKED:
                state["checked"][seed] = result.assignment
            return balance_failure(result.assignment, self.base, k)

        self._request("miss", f"read seed {seed}",
                      lambda: reader.partition(state["dataset"], k, EPS, seed=seed), check_miss)
        for _ in range(self.HITS):
            s = int(state["rng"].choice(state["seen"]))
            self._request(
                "hit", f"read seed {s}",
                lambda s=s: reader.partition(state["dataset"], k, EPS, seed=s),
                lambda result, s=s: [] if np.array_equal(result.assignment, first.get(s))
                else ["cache hit differs from the computed result"])

    def writer_step(self, state: dict) -> None:
        step = state["step"]
        state["step"] += 1
        spot = step - step % 2  # odd steps remove the spot the previous step added
        cx = 0.1 + 0.8 * ((0.13 * spot) % 1.0)
        hot = ((np.abs(self.points[:, 0] - cx) < self.HOT_SIDE / 2)
               & (np.abs(self.points[:, 1] - 0.5) < self.HOT_SIDE / 2))
        delta = np.where(hot, 1.0 if step % 2 == 0 else -1.0, 0.0)
        expected = state["weights"] + delta
        if expected.min() <= 0:
            self.outcome(f"write step {step}", ["a weight would drop to <= 0"])
            return

        def check(result):
            state["weights"] = expected
            return balance_failure(result.assignment, expected, self.params["k"])

        self._request("write", f"write step {step}",
                      lambda: state["writer"].repartition(state["session"], weight_delta=delta), check)

    def measure(self, state: dict, seconds: float) -> None:
        """Run reader-round-plus-writer-step cycles; when tracing, odd cycles are traced."""
        start = perf()
        deadline = start + seconds
        self.requests = []
        self.cycle = 0
        while self.cycle < MIN_OPS or perf() < deadline:
            traced = self.tracer is not None and self.cycle % 2 == 1
            if traced:
                self.tracer.set_op(self.cycle)
            self.reader_round(state)
            self.writer_step(state)
            if traced:
                self.tracer.set_op(-1)
            self.cycle += 1
        self.window = (start, perf())
        self.op_records = [{"i": r["cycle"], "traced": self.tracer is not None and r["cycle"] % 2 == 1,
                            "s": r["s"], "kind": r["kind"]} for r in self.requests]

    def op_metrics(self) -> dict:
        plain = [r for r in self.op_records if not r["traced"]]
        times = [r["s"] for r in plain]
        for kind, label in (("hit", "read_hit"), ("miss", "read_miss"), ("write", "write")):
            self.extra[f"{label}_ms_p50"] = median([r["s"] for r in plain if r["kind"] == kind]) * 1e3
        self.extra["request_ms_p90"] = p90(times) * 1e3
        self.extra["requests"] = len(self.requests)
        done = sum(1 for r in self.requests if r["ok"])
        return self.summary(times, done, self.window[1] - self.window[0])

    def finish(self, state: dict) -> None:
        stats = state["control"].stats()["cache"]
        looked_up = stats["hits"] + stats["misses"]
        exact = looked_up > 0 and stats["hits"] * (self.HITS + 1) == looked_up * self.HITS
        self.extra["cache.hit_ratio"] = stats["hits"] / looked_up if looked_up else float("nan")
        self.outcome("cache", [] if exact else [f"hit ratio {stats['hits']}/{looked_up} is not 0.8"])
        # served reads must match a direct partitioner call bit for bit
        k = self.params["k"]
        for s in self.CHECKED:
            direct = GeographerPartitioner().partition(self.points, k, self.base, EPS, rng=s)
            same = np.array_equal(direct.assignment, state["checked"].get(s))
            self.outcome(f"direct seed {s}", [] if same else ["served result differs from a direct call"])
            self.volumes.append(float(total_comm_volume(self.meshes[0], direct.assignment, k)))

    def movement(self, busy: dict, extras: dict, n_ops: int) -> float:
        # frame encoding and decoding on both ends of the socket
        return busy.get("protocol", 0.0) / n_ops


WORKLOADS = {cls.name: cls for cls in (MeshCold, FrontWarm, DistProcess, OndiskStream, ServiceMixed)}


# -- per-layer analysis ------------------------------------------------------------------


def layer_metrics(wl: Workload, dumps: list[dict], own_pids: set[int]) -> dict:
    """Per-layer numbers per traced operation, from the recorded spans.

    Busy times come from every process (rank workers included); the
    residual is the traced wall time per operation minus the named layers'
    self time in ``own_pids``, so the driver code's own time lands there.
    """
    from trace import DRIVER_LAYERS, layer_totals

    traced = [r for r in wl.op_records if r["traced"]]
    plain = [r for r in wl.op_records if not r["traced"]]
    n_ops = max(1, len(traced))
    ops = {r["i"] for r in traced}
    busy, counts, extras = layer_totals(dumps, ops)
    own, _, _ = layer_totals(dumps, ops, pids=own_pids)
    wall = sum(r["s"] for r in traced) / n_ops
    named = sum(t for layer, t in own.items() if layer not in DRIVER_LAYERS) / n_ops
    evaluated = counts["points_total"] - counts["points_skipped"]
    per_layer = {
        "sweep.busy_s": busy.get("sweep", 0.0) / n_ops,
        "sweep.calls": counts["sweeps"] / n_ops,
        "sweep.points_evaluated": evaluated / n_ops,
        "sweep.points_changed": counts["points_changed"] / n_ops,
        "sweep.useful_ratio": counts["points_changed"] / max(1, evaluated),
        "sweep.skip_ratio": counts["points_skipped"] / max(1, counts["points_total"]),
        "sweep.prune_ratio": 1.0 - counts["center_evals"] / max(1, counts["center_evals_possible"]),
        "balance.self_s": busy.get("balance", 0.0) / n_ops,
        "update.busy_s": busy.get("update", 0.0) / n_ops,
        "influence.busy_s": busy.get("influence", 0.0) / n_ops,
        "bounds.busy_s": busy.get("bounds", 0.0) / n_ops,
        "movement.busy_s": wl.movement(busy, extras, n_ops),
        "residual_s": wall - named,
        "residual_share": (wall - named) / wall if wall > 0 else float("nan"),
        "trace_overhead": median([r["s"] for r in traced]) / median([r["s"] for r in plain]),
    }
    detail = {f"{layer}.busy_s": t / n_ops for layer, t in sorted(busy.items())}
    detail.update({
        "sfc.calls": extras["calls"].get("sfc", 0) / n_ops,
        "sampling.busy_s": extras["stages"].get("sampling", 0.0) / n_ops,
        "sampling.rounds": extras["sample_rounds"] / n_ops,
        "own_layers_s": sum(own.values()) / n_ops,
        "wall_s": wall,
        "traced_ops": len(traced),
    })
    if isinstance(wl, ServiceMixed) and wl.server_dump is not None:
        detail.update(service_detail(wl, dumps, ops, n_ops))
    return {"per_layer": per_layer, "detail": detail}


def service_detail(wl: ServiceMixed, dumps: list[dict], ops: set[int], n_ops: int) -> dict:
    """Server view of the traced requests: wire bytes, transport, compute, checkpoints."""
    rows = wl.server_dump["spans"]
    wire = sum(int(row[7].get("bytes", 0)) for dump in dumps for row in dump["spans"]
               if row[0] == "_loads" and row[6] in ops and row[7])
    # Requests are sequential and the server records every dispatch and
    # compute span, so the n-th timed request matches the n-th span counted
    # from the end (set-up requests come first).
    dispatch = [row for row in rows if row[0] == "PartitionServer._dispatch"
                and (row[7] or {}).get("op") in ("partition", "repartition")]
    timed = dispatch[-len(wl.requests):] if wl.requests else []
    transport = [r["s"] - (span[3] - span[2]) for r, span in zip(wl.requests, timed)]
    computes = {op: [row[3] - row[2] for row in rows
                     if row[0] == f"GeometricPartitioner.{op}" and row[6] in ops]
                for op in ("partition", "repartition")}
    return {
        "protocol.mb": wire / n_ops / (1024.0 * 1024.0),
        "transport.ms_p50": median(transport) * 1e3,
        "compute.read_ms_p50": median(computes["partition"]) * 1e3,
        "compute.write_ms_p50": median(computes["repartition"]) * 1e3,
        "checkpoint.busy_s": sum(row[3] - row[2] for row in rows
                                 if row[1] == "checkpoint" and row[6] in ops) / n_ops,
        "checkpoint.count": sum(1 for row in rows if row[1] == "checkpoint" and row[6] in ops) / n_ops,
    }


# -- the workload process --------------------------------------------------------------


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import_s = perf() - spec["t_spawn"]  # interpreter start and imports, numpy and repro included
    wl = WORKLOADS[spec["workload"]](spec)
    result: dict = {"workload": wl.name, "seed": wl.seed, "size": spec["size"],
                    "trace": bool(spec["trace"]), "import_s": import_s}
    if spec["trace"]:
        from trace import Tracer

        worker_dir = wl.scratch / "worker-spans"
        worker_dir.mkdir(exist_ok=True)
        wl.tracer = Tracer(flag_path=spec["flag"], worker_dir=str(worker_dir)).install()
        result["trace_missing"] = wl.tracer.missing
    state = None
    status = 0
    try:
        reps = []
        for rep in range(SETUP_REPS):
            if state is not None:
                wl.teardown(state)
                state = None
            t0 = perf()
            state = wl.setup(rep)
            reps.append(perf() - t0)
        result["setup_reps_s"] = reps
        wl.measure(state, float(spec["seconds"]))
        result["peak_rss_mb"] = tree_peak_rss_mb()
        wl.finish(state)
        result.update(wl.op_metrics())
        result["setup_s"] = import_s + median(reps)
    except Exception:
        wl.outcome("workload", [f"raised:\n{traceback.format_exc()}"])
        status = 1
    finally:
        if state is not None:
            try:
                wl.teardown(state)
            except Exception:
                wl.outcome("teardown", [f"raised:\n{traceback.format_exc()}"])
                status = 1
    result.update(attempted=wl.attempted, failed=wl.failed, failures=wl.failures[:20], extra=wl.extra)
    if spec["trace"] and status == 0:
        from trace import load_dump, write_chrome_trace

        wl.tracer.uninstall()
        dumps = [wl.tracer.snapshot()]
        names = {os.getpid(): f"{wl.name} benchmark process"}
        for path in sorted((wl.scratch / "worker-spans").glob("worker-*.json")):
            dump = load_dump(str(path))
            if dump["spans"]:
                dumps.append(dump)
                names[dump["pid"]] = f"rank worker {dump['pid']}"
        own = {os.getpid()}
        if getattr(wl, "server_dump", None) is not None:
            dumps.append(wl.server_dump)
            names[wl.server_dump["pid"]] = "partitioning server"
            own.add(wl.server_dump["pid"])
        result.update(layer_metrics(wl, dumps, own))
        result["trace_events"] = write_chrome_trace(spec["trace_out"], dumps, names)
        result["trace_file"] = spec["trace_out"]
    Path(spec["result"]).write_text(json.dumps(result, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
