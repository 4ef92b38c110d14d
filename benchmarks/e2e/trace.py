"""In-memory span tracer that instruments the program from outside.

The tracer replaces a fixed list of the program's public functions and
methods with thin wrappers that record a span (name, layer, start, end,
parent span, thread, operation id) around each call.  Nothing under
``src/`` changes: a wrapper is installed on every loaded ``repro.*`` module
that holds the target function object, because several modules import
names directly (``from repro.core.assign import assign_points``).

Spans are recorded only while the shared operation flag is non-negative, so
one process can alternate traced and untraced operations and report the
tracing overhead.  The flag lives in a shared memory page: forked
``ProcessComm`` workers inherit the page (and the wrappers), and a server
launched by ``traced_serve.py`` maps the same file.  Workers write their
spans to ``worker_dir`` when they exit; the server dumps its spans on
shutdown.

``layer_totals`` turns spans into per-layer self times (a span's duration
minus the time covered by its child spans) and sweep counters;
``write_chrome_trace`` exports Chrome trace-event JSON that Perfetto opens
directly.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import inspect
import json
import mmap
import os
import sys
import threading
import time
from multiprocessing import util as mp_util

perf = time.perf_counter

#: Layers whose self time is the program's driver code: it counts toward
#: the residual, not toward a named layer.
DRIVER_LAYERS = ("driver", "request", "bench")

#: Modules imported before patching so that every module holding a target
#: function by name is patched too.
PRELOAD = (
    "repro.sfc.curves",
    "repro.core.assign",
    "repro.core.balanced_kmeans",
    "repro.core.bounds",
    "repro.core.influence",
    "repro.core.kernels",
    "repro.core.seeding",
    "repro.io.spill",
    "repro.io.sharded",
    "repro.partitioners.base",
    "repro.partitioners.geographer",
    "repro.runtime.comm",
    "repro.runtime.procomm",
    "repro.runtime.distsort",
    "repro.runtime.distributed_kmeans",
    "repro.runtime.ondisk",
    "repro.runtime.shuffle",
    "repro.service.protocol",
    "repro.service.cache",
    "repro.service.server",
)

#: (layer, "module:qualname") for every plain wrapper; wrappers that read
#: arguments or results are listed in ``SPECIAL_TARGETS`` below.
TARGETS = (
    ("sfc", "repro.sfc.curves:sfc_index"),
    ("sfc", "repro.core.balanced_kmeans:compute_sfc_order"),
    ("seeding", "repro.core.seeding:seed_centers"),
    ("seeding", "repro.core.seeding:seed_positions"),
    ("balance", "repro.core.assign:assign_and_balance"),
    ("balance", "repro.core.influence:adapt_influence"),
    ("update", "repro.core.balanced_kmeans:weighted_center_update"),
    ("update", "repro.core.assign:center_partial_sums"),
    ("influence", "repro.core.influence:estimate_cluster_diameters"),
    ("influence", "repro.core.influence:erode_influence"),
    ("influence", "repro.core.assign:diameter_partial_sums"),
    ("bounds", "repro.core.bounds:relax_for_influence"),
    ("bounds", "repro.core.bounds:relax_for_influence_exclusive"),
    ("bounds", "repro.core.bounds:relax_for_movement"),
    ("bounds", "repro.core.bounds:relax_for_movement_exclusive"),
    ("bounds", "repro.core.kernels:SweepWorkspace.queue_relax_influence"),
    ("bounds", "repro.core.kernels:SweepWorkspace.queue_relax_movement"),
    ("workspace", "repro.core.kernels:SweepWorkspace.__init__"),
    ("driver", "repro.partitioners.base:GeometricPartitioner.partition"),
    ("driver", "repro.partitioners.base:GeometricPartitioner.repartition"),
    ("driver", "repro.runtime.distributed_kmeans:distributed_balanced_kmeans"),
    ("driver", "repro.runtime.ondisk:ondisk_distributed_kmeans"),
    ("distsort", "repro.runtime.distsort:distributed_sort"),
    ("superstep", "repro.runtime.procomm:ProcessComm.run_local"),
    ("collective", "repro.runtime.procomm:ProcessComm.allreduce"),
    ("collective", "repro.runtime.procomm:ProcessComm.allgather"),
    ("collective", "repro.runtime.procomm:ProcessComm.alltoallv"),
    ("collective", "repro.runtime.comm:VirtualComm.allreduce"),
    ("collective", "repro.runtime.comm:VirtualComm.allgather"),
    ("collective", "repro.runtime.comm:VirtualComm.alltoallv"),
    ("exchange", "repro.runtime.ondisk:_exchange"),
    ("spill", "repro.io.spill:SpillStore.put"),
    ("spill", "repro.io.spill:SpillStore.create"),
    ("spill", "repro.io.spill:SpillStore.remove"),
    ("spill", "repro.io.spill:SpillHandle.open"),
    ("spill", "repro.io.spill:SpillHandle.read"),
    ("spill", "repro.io.spill:SpillHandle.read_rows"),
    ("spill", "repro.io.spill:SpillHandle.write_rows"),
    # the on-disk runner syncs the memmaps SpillHandle.open returns itself
    ("spill", "numpy:memmap.flush"),
    ("shuffle", "repro.runtime.shuffle:shuffle_to_disk"),
    ("verify", "repro.runtime.shuffle:verify_shuffle"),
    ("cache", "repro.service.cache:LRUResultCache.get"),
    ("checkpoint", "repro.service.server:PartitionService._checkpoint_session"),
    ("protocol", "repro.service.server:write_frame"),
)

#: AssignStats fields whose per-sweep deltas the sweep wrapper records.
SWEEP_FIELDS = ("points_total", "points_skipped", "center_evals",
                "center_evals_possible", "points_changed")


class Tracer:
    """Span recorder shared by the benchmark process, its workers and its server.

    ``flag_path`` names a file holding the shared operation flag (the server
    case); without it the flag is an anonymous shared page inherited by
    forked workers.  ``owner`` resets the flag to "off" on creation.
    """

    def __init__(self, flag_path: str | None = None, worker_dir: str | None = None,
                 owner: bool = True) -> None:
        if flag_path is None:
            self._mm = mmap.mmap(-1, mmap.PAGESIZE)
        else:
            fd = os.open(flag_path, os.O_RDWR | os.O_CREAT, 0o600)
            try:
                if os.fstat(fd).st_size < mmap.PAGESIZE:
                    os.ftruncate(fd, mmap.PAGESIZE)
                self._mm = mmap.mmap(fd, mmap.PAGESIZE)
            finally:
                os.close(fd)
        self._flag = ctypes.c_int64.from_buffer(self._mm)
        if owner:
            self._flag.value = -1
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._tls = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        mp_util.register_after_fork(self, Tracer._after_fork)

    # -- operation flag ------------------------------------------------------

    def set_op(self, op: int) -> None:
        """Record spans under operation id ``op``; ``-1`` stops recording."""
        self._flag.value = op

    @property
    def op(self) -> int:
        return self._flag.value

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def record(self, name: str, layer: str, t0: float, t1: float, op: int, args=None) -> None:
        """Append a span measured by the caller (e.g. one benchmark operation)."""
        self.spans.append([name, layer, t0, t1, None, threading.get_ident(), op, args])

    def wrap(self, fn, layer: str, name: str | None = None, always: bool = False,
             before=None, after=None):
        """Return a recording wrapper around ``fn``.

        ``always`` records even while the flag is off (cheap per-request
        spans the service analysis matches by order).  ``before(args,
        kwargs)`` may return replacement ``(args, kwargs, state)``;
        ``after(span, state, result)`` may attach span arguments.
        Coroutine functions get an ``async`` wrapper that does not take part
        in parent tracking, because coroutines interleave on one thread.
        """
        name = name or fn.__qualname__
        flag = self._flag
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                op = flag.value
                if op < 0 and not always:
                    return await fn(*args, **kwargs)
                state = None
                if before is not None:
                    args, kwargs, state = before(args, kwargs)
                span = [name, layer, perf(), 0.0, None, threading.get_ident(), op, None]
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    span[3] = perf()
                    tracer.spans.append(span)
                if after is not None:
                    after(span, state, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = flag.value
            if op < 0 and not always:
                return fn(*args, **kwargs)
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            stack = tracer._stack()
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident(), op, None]
            stack.append(span)
            span[2] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                after(span, state, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, always_layers: tuple[str, ...] = ()) -> "Tracer":
        """Wrap every target; a target missing from the program is skipped and listed."""
        for module in PRELOAD:
            try:
                importlib.import_module(module)
            except ImportError:
                self.missing.append(module)
        for layer, target in TARGETS:
            self._patch(target, layer, always=layer in always_layers)
        for layer, target, before, after in SPECIAL_TARGETS:
            self._patch(target, layer, always=layer in always_layers, before=before, after=after)
        return self

    def _patch(self, target: str, layer: str, always: bool = False, before=None, after=None) -> None:
        module_name, qualname = target.split(":")
        owner = sys.modules.get(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = None if owner is None else (
            owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        )
        if original is None or not callable(original):
            self.missing.append(target)
            return
        wrapper = self.wrap(original, layer, name=qualname, always=always, before=before, after=after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- processes ---------------------------------------------------------------

    def _after_fork(self) -> None:
        # a forked ProcessComm worker: keep the wrappers and the shared flag,
        # drop the parent's spans, and dump our own when the worker exits
        self.pid = os.getpid()
        self.spans = []
        self._tls = threading.local()
        if self.worker_dir is not None:
            mp_util.Finalize(self, Tracer.dump_worker, args=(self,), exitpriority=100)

    def dump_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.json")
        self.dump(path)

    def dump(self, path: str) -> None:
        """Write :meth:`snapshot` as JSON, atomically."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)

    def snapshot(self) -> dict:
        """This process's spans; parent references become list indices."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return {"pid": self.pid, "spans": [
            [s[0], s[1], s[2], s[3], index.get(id(s[4]), -1) if s[4] is not None else -1,
             s[5], s[6], s[7]]
            for s in self.spans
        ]}


def load_dump(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- special wrappers ------------------------------------------------------------


def _sweep_before(args, kwargs):
    """Make sure ``assign_points`` fills an ``AssignStats`` and remember its counters."""
    AssignStats = sys.modules["repro.core.assign"].AssignStats
    if len(args) > 7:
        stats = args[7]
        if stats is None:
            stats = AssignStats()
            args = args[:7] + (stats,) + args[8:]
    else:
        stats = kwargs.get("stats")
        if stats is None:
            stats = AssignStats()
            kwargs = dict(kwargs, stats=stats)
    return args, kwargs, (stats, tuple(getattr(stats, f) for f in SWEEP_FIELDS))


def _sweep_after(span, state, result) -> None:
    stats, before = state
    span[7] = {f: getattr(stats, f) - b for f, b in zip(SWEEP_FIELDS, before)}


def _kmeans_after(span, state, result) -> None:
    """Keep the stage timers and sampled rounds the program already returns."""
    stages = getattr(getattr(result, "timers", None), "stages", None) or {}
    history = getattr(result, "history", None) or []
    n = int(result.assignment.shape[0])
    span[7] = {
        "stages": dict(stages),
        "sample_rounds": sum(1 for h in history if h.sample_size < n),
        "iterations": int(result.iterations),
    }


def _bytes_before(args, kwargs):
    return args, kwargs, len(args[0])


def _bytes_after(span, state, result) -> None:
    span[7] = {"bytes": state}


def _request_before(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return args, kwargs, request.get("op") if isinstance(request, dict) else None


def _request_after(span, state, result) -> None:
    span[7] = {"op": state, "status": result.get("status") if isinstance(result, dict) else None}


#: (layer, target, before, after) for wrappers with argument/result hooks.
SPECIAL_TARGETS = (
    ("sweep", "repro.core.assign:assign_points", _sweep_before, _sweep_after),
    ("driver", "repro.core.balanced_kmeans:balanced_kmeans", None, _kmeans_after),
    ("protocol", "repro.service.protocol:_loads", _bytes_before, _bytes_after),
    ("request", "repro.service.server:PartitionServer._dispatch", _request_before, _request_after),
)


# -- analysis ------------------------------------------------------------------------


def self_times(rows: list[list]) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(rows)
    for row in rows:
        parent = row[4]
        if parent >= 0:
            child[parent] += row[3] - row[2]
    return [row[3] - row[2] - c for row, c in zip(rows, child)]


def layer_totals(dumps: list[dict], ops: set[int] | None = None,
                 pids: set[int] | None = None) -> tuple[dict[str, float], dict[str, int], dict]:
    """Sum self time per layer and sweep counters over spans of ``ops``/``pids``.

    Returns ``(busy_s by layer, counters, extras)``; ``extras`` gathers what
    the driver wrappers read from returned results (stage timers, sampled
    rounds).
    """
    busy: dict[str, float] = {}
    counts: dict[str, int] = {f: 0 for f in SWEEP_FIELDS}
    counts["sweeps"] = 0
    calls: dict[str, int] = {}
    extras = {"stages": {}, "sample_rounds": 0}
    for dump in dumps:
        if pids is not None and dump["pid"] not in pids:
            continue
        rows = dump["spans"]
        for row, own in zip(rows, self_times(rows)):
            if ops is not None and row[6] not in ops:
                continue
            layer = row[1]
            busy[layer] = busy.get(layer, 0.0) + own
            calls[layer] = calls.get(layer, 0) + 1
            args = row[7]
            if layer == "sweep" and args:
                counts["sweeps"] += 1
                for f in SWEEP_FIELDS:
                    counts[f] += int(args.get(f, 0))
            elif row[0] == "balanced_kmeans" and args:
                for stage, t in args.get("stages", {}).items():
                    extras["stages"][stage] = extras["stages"].get(stage, 0.0) + t
                extras["sample_rounds"] += int(args.get("sample_rounds", 0))
    extras["calls"] = calls
    return busy, counts, extras


def write_chrome_trace(path: str, dumps: list[dict], names: dict[int, str]) -> int:
    """Write Chrome trace-event JSON (opens in Perfetto); returns the event count."""
    starts = [row[2] for dump in dumps for row in dump["spans"]]
    base = min(starts) if starts else 0.0
    events = []
    for dump in dumps:
        pid = dump["pid"]
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": names.get(pid, f"process {pid}")}})
        tids: dict[int, int] = {}
        for row in dump["spans"]:
            tid = tids.setdefault(row[5], len(tids))
            event = {
                "name": row[0], "cat": row[1], "ph": "X", "pid": pid, "tid": tid,
                "ts": round((row[2] - base) * 1e6, 3),
                "dur": round((row[3] - row[2]) * 1e6, 3),
            }
            args = {"op": row[6]}
            if row[7]:
                args.update(row[7])
            event["args"] = args
            events.append(event)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)
