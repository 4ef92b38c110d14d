"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``list``        — registry instances and available partitioners;
- ``convert``     — build a sharded on-disk dataset from an instance or file
  (consumed by ``distributed --ondisk``);
- ``partition``   — partition an instance (or METIS file) and print metrics;
- ``hierarchical``— topology-aware multi-level partition (k = k1xk2x...);
- ``repartition`` — adaptive warm-vs-cold repartitioning with migration volume;
- ``compare``     — all tools on one instance, Table-1/2 style;
- ``visualize``   — write the partition (2-D meshes) as SVG;
- ``distributed`` — run the distributed Geographer on an execution backend;
- ``resume``      — restart a checkpointed ``distributed``/``repartition`` run;
- ``spmv``        — execute a distributed SpMV through the halo plan;
- ``scaling``     — weak/strong scaling series (Figure 3);
- ``mpi``         — SPMD bridge: forward a command line to
  :mod:`repro.runtime.mpi_main` (``mpiexec -n 4 repro mpi distributed ...``);
- ``experiments`` — regenerate a named paper artifact (figure1..figure4,
  table1, table2, components, repartition);
- ``serve``       — long-lived partitioning server on a unix socket
  (warm workspaces, request batching, LRU result cache, session
  checkpoints);
- ``bench-service``— load-test a partitioning server and report p50/p99
  latency and throughput (launches a scratch server unless --socket is
  given).

Commands that exercise the SPMD runtime (``distributed``, ``spmv``,
``scaling``) accept ``--backend virtual|process|mpi``: virtual simulates
ranks in-process and reports machine-model (modeled) timings; process runs
real worker processes and mpi runs real ``mpiexec``-launched ranks (launch
through ``repro mpi`` / ``python -m repro.runtime.mpi_main``), both
reporting measured wall-clock.  The default honours the ``REPRO_BACKEND``
environment variable, then falls back to virtual.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.partitioners import available_partitioners

    tools = available_partitioners()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Balanced k-means for parallel geometric partitioning (ICPP 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list instances and partitioners")

    cv = sub.add_parser("convert", help="build a sharded on-disk dataset (see `distributed --ondisk`)")
    cv.add_argument("source", help="registry instance name, METIS .graph file, or coordinate "
                                   "text file (one point per line)")
    cv.add_argument("output", help="dataset directory to create")
    cv.add_argument("--shard-rows", type=int, default=None,
                    help="rows per shard file (default 262144)")
    cv.add_argument("--scale", type=float, default=1.0, help="registry instances only")
    cv.add_argument("--seed", type=int, default=0, help="registry instances only")

    p = sub.add_parser("partition", help="partition one instance and print metrics")
    p.add_argument("instance", help="registry instance name or .graph file path")
    p.add_argument("-k", type=int, default=16, help="number of blocks (default 16)")
    p.add_argument("--tool", choices=tools, default="Geographer")
    p.add_argument("--epsilon", type=float, default=0.03)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shape", action="store_true", help="also print shape metrics")

    h = sub.add_parser("hierarchical", help="topology-aware multi-level partition")
    h.add_argument("instance", help="registry instance name or .graph file path")
    h.add_argument("--levels", default="2x3x4",
                   help="factorisation k = k1xk2x... matching a machine hierarchy "
                        "(islands x nodes x cores), e.g. 2x3x4 (default)")
    h.add_argument("--tool", choices=tools, default="Geographer", help="inner partitioner per level")
    h.add_argument("--epsilon", type=float, default=0.03)
    h.add_argument("--scale", type=float, default=1.0)
    h.add_argument("--seed", type=int, default=0)

    rp = sub.add_parser("repartition", help="adaptive repartitioning: warm starts vs cold restarts")
    rp.add_argument("-n", type=int, default=3000, help="mesh size (default 3000)")
    rp.add_argument("-k", type=int, default=12)
    rp.add_argument("--steps", type=int, default=4)
    rp.add_argument("--epsilon", type=float, default=0.03)
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--checkpoint-dir", default=None,
                    help="snapshot each completed step here; rerunning with the same "
                         "parameters resumes after the last completed step")

    c = sub.add_parser("compare", help="run all tools on one instance")
    c.add_argument("instance")
    c.add_argument("-k", type=int, default=16)
    c.add_argument("--scale", type=float, default=1.0)
    c.add_argument("--seed", type=int, default=0)

    r = sub.add_parser("refine", help="FM-refine each tool's partition and report cut gains")
    r.add_argument("instance")
    r.add_argument("-k", type=int, default=16)
    r.add_argument("--scale", type=float, default=1.0)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--passes", type=int, default=5)

    v = sub.add_parser("visualize", help="render a 2-D partition to SVG")
    v.add_argument("instance")
    v.add_argument("output", help="output .svg path")
    v.add_argument("-k", type=int, default=8)
    v.add_argument("--tool", choices=tools, default="Geographer")
    v.add_argument("--scale", type=float, default=1.0)
    v.add_argument("--seed", type=int, default=0)

    from repro.runtime.comm import available_backends

    backends = available_backends()

    from repro.core.xp import kernel_backend_names

    d = sub.add_parser("distributed", help="distributed Geographer on an execution backend")
    d.add_argument("instance", help="registry instance name or .graph file path")
    d.add_argument("-k", type=int, default=16, help="number of blocks (default 16)")
    d.add_argument("-p", "--nranks", type=int, default=4, help="ranks (default 4)")
    d.add_argument("--backend", choices=backends, default=None,
                   help="execution backend (default: $REPRO_BACKEND, then virtual)")
    d.add_argument("--kernel-backend", choices=kernel_backend_names(), default=None,
                   help="sweep kernel per rank (default: $REPRO_KERNEL_BACKEND, then "
                        "numpy; numba falls back to numpy with a warning when not installed)")
    d.add_argument("--epsilon", type=float, default=0.03)
    d.add_argument("--scale", type=float, default=1.0)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--checkpoint-dir", default=None,
                   help="write superstep checkpoints here (resume with `repro resume`)")
    d.add_argument("--checkpoint-every", type=int, default=1,
                   help="iterations between checkpoints (default 1)")
    d.add_argument("--ondisk", action="store_true",
                   help="treat INSTANCE as a sharded dataset directory (see `repro convert`) "
                        "and run the out-of-core runner: peak memory O(n/ranks)")
    d.add_argument("--spill-dir", default=None,
                   help="ondisk only: directory for per-rank spill files "
                        "(default: a fresh temporary directory)")
    d.add_argument("--shuffle-out", default=None,
                   help="ondisk only: also shuffle payloads to block owners, writing "
                        "per-rank files + global remap table to this directory")

    rs = sub.add_parser(
        "resume",
        help="resume a checkpointed run (distributed or repartition) from its snapshot",
    )
    rs.add_argument("checkpoint",
                    help="checkpoint .npz file or the checkpoint directory "
                         "(directory: newest valid snapshot wins)")
    rs.add_argument("-p", "--nranks", type=int, default=None,
                    help="ranks for the resumed run (default: the checkpoint's shard "
                         "count; any value yields the same result)")
    rs.add_argument("--backend", choices=backends, default=None,
                    help="execution backend (default: $REPRO_BACKEND, then virtual)")
    rs.add_argument("--checkpoint-dir", default=None,
                    help="keep checkpointing into this directory (default: the source "
                         "directory when resuming from one)")
    rs.add_argument("--checkpoint-every", type=int, default=None,
                    help="iterations between checkpoints (default: the checkpoint's own cadence)")

    sp = sub.add_parser("spmv", help="distributed SpMV through the halo plan")
    sp.add_argument("instance", help="registry instance name or .graph file path")
    sp.add_argument("-k", type=int, default=16, help="number of blocks (default 16)")
    sp.add_argument("-p", "--nranks", type=int, default=4, help="ranks (default 4)")
    sp.add_argument("--backend", choices=backends, default=None,
                    help="execution backend (default: $REPRO_BACKEND, then virtual)")
    sp.add_argument("--tool", choices=tools, default="Geographer",
                    help="partitioner producing the blocks")
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("scaling", help="weak/strong scaling series")
    s.add_argument("mode", choices=("weak", "strong"))
    s.add_argument("--ranks", type=int, nargs="+", default=None)
    s.add_argument("--backend", choices=backends, default=None,
                   help="execution backend for the measured points (rank counts up to "
                        "--measured-max-ranks; larger points are always modeled)")
    s.add_argument("--measured-max-ranks", type=int, default=None,
                   help="back points with a real run up to this many ranks "
                        "(default: 8 for weak, 0 for strong; 16 when --backend is given)")
    s.add_argument("--seed", type=int, default=0)

    m = sub.add_parser(
        "mpi",
        help="run a repro command line SPMD under mpiexec (rank 0 drives, "
             "other ranks serve; default backend becomes 'mpi')",
    )
    m.add_argument("mpi_argv", nargs=argparse.REMAINDER,
                   help="forwarded verbatim to python -m repro.runtime.mpi_main, "
                        "e.g. `mpiexec -n 4 repro mpi distributed rgg2d -p 4` or "
                        "`mpiexec -n 4 repro mpi equivalence --ranks 1 2 4`")

    e = sub.add_parser("experiments", help="regenerate a paper artifact")
    e.add_argument("name", choices=("figure1", "figure2", "figure3", "figure4",
                                    "table1", "table2", "components", "repartition"))
    e.add_argument("--out", default="results", help="output directory for figure1 SVGs")
    e.add_argument("--scale", type=float, default=0.25)
    e.add_argument("--seed", type=int, default=0)

    sv = sub.add_parser("serve", help="long-lived partitioning server on a unix socket")
    sv.add_argument("socket", help="unix socket path to listen on")
    sv.add_argument("--checkpoint-dir", default=None,
                    help="per-session checkpoints go here; restarting the server "
                         "on the same directory resumes every open session")
    sv.add_argument("--cache-capacity", type=int, default=128,
                    help="LRU result-cache entries (default 128; 0 disables)")
    sv.add_argument("--compute-threads", type=int, default=1,
                    help="partitioning executor threads (default 1)")
    sv.add_argument("--max-inflight", type=int, default=None,
                    help="admission control: max concurrent compute requests "
                         "(default unlimited)")
    sv.add_argument("--max-queue", type=int, default=256,
                    help="admission control: max requests queued behind the "
                         "in-flight limit before shedding with 'overloaded' "
                         "(default 256)")
    sv.add_argument("--compute-timeout", type=float, default=None,
                    help="supervisor hang limit per compute in seconds "
                         "(default: $REPRO_SERVICE_COMPUTE_TIMEOUT, else off)")
    sv.add_argument("--breaker-threshold", type=int, default=3,
                    help="consecutive compute failures that open a dataset's "
                         "circuit breaker (default 3)")
    sv.add_argument("--breaker-reset", type=float, default=5.0,
                    help="seconds before an open breaker half-opens (default 5)")
    sv.add_argument("--drain-grace", type=float, default=10.0,
                    help="hard deadline in seconds for in-flight requests "
                         "during SIGTERM/shutdown drain (default 10)")

    bs = sub.add_parser("bench-service",
                        help="load-test a partitioning server: p50/p99 latency + throughput")
    bs.add_argument("--socket", default=None,
                    help="hammer an already-running server (default: launch a "
                         "scratch in-process server and shut it down after)")
    bs.add_argument("-n", "--n-points", type=int, default=2000)
    bs.add_argument("-k", type=int, default=8)
    bs.add_argument("--epsilon", type=float, default=0.03)
    bs.add_argument("--clients", type=int, default=32)
    bs.add_argument("--requests", type=int, default=4,
                    help="requests per client (default 4)")
    bs.add_argument("--seeds", type=int, default=4,
                    help="distinct request seeds cycled across clients (default 4)")
    bs.add_argument("--cache-capacity", type=int, default=128)
    bs.add_argument("--compute-threads", type=int, default=1)
    bs.add_argument("--seed", type=int, default=0, help="dataset generation seed")
    bs.add_argument("--no-verify", action="store_true",
                    help="skip the bit-identity check against direct partition()")
    bs.add_argument("--out-json", default=None,
                    help="also write the full report as JSON here")
    bs.add_argument("--retries", type=int, default=None,
                    help="max attempts per request incl. the first "
                         "(default: the client's standard retry policy, 4)")
    bs.add_argument("--deadline-ms", type=float, default=None,
                    help="attach a per-request deadline_ms to every request")
    bs.add_argument("--request-timeout", type=float, default=300.0,
                    help="client reply timeout in seconds (default 300)")
    bs.add_argument("--max-inflight", type=int, default=None,
                    help="scratch server only: admission-control in-flight cap")
    bs.add_argument("--max-queue", type=int, default=256,
                    help="scratch server only: admission-control queue bound "
                         "(default 256)")
    return parser


def _load_mesh(name: str, scale: float, seed: int):
    from repro.mesh.io import read_metis
    from repro.mesh.registry import REGISTRY

    if name in REGISTRY:
        return REGISTRY[name].make(scale=scale, seed=seed)
    if name.endswith(".graph"):
        return read_metis(name)
    raise SystemExit(f"unknown instance {name!r}; try `python -m repro list`")


def _cmd_list() -> None:
    from repro.mesh.registry import REGISTRY
    from repro.partitioners.base import available_partitioners

    print("partitioners:", ", ".join(available_partitioners()))
    print(f"\n{'instance':<16}{'class':<12}{'default n':>10}  paper graph (paper n)")
    print("-" * 72)
    for spec in sorted(REGISTRY.values(), key=lambda s: (s.instance_class, s.name)):
        paper_n = f"({spec.paper_n:,})" if spec.paper_n else ""
        print(f"{spec.name:<16}{spec.instance_class:<12}{spec.default_n:>10}  {spec.paper_name} {paper_n}")


def _cmd_convert(args) -> None:
    from repro.io.sharded import DEFAULT_SHARD_ROWS, ShardedDatasetWriter, write_sharded
    from repro.mesh.io import coords_meta, iter_coords, iter_metis_weights
    from repro.mesh.registry import REGISTRY

    shard_rows = args.shard_rows or DEFAULT_SHARD_ROWS
    if args.source in REGISTRY:
        mesh = REGISTRY[args.source].make(scale=args.scale, seed=args.seed)
        ds = write_sharded(args.output, mesh.coords, weights=mesh.node_weights,
                           shard_rows=shard_rows)
    elif args.source.endswith(".graph"):
        import os

        base, _ = os.path.splitext(args.source)
        xyz = base + ".xyz"
        if not os.path.exists(xyz):
            raise SystemExit(f"coordinate sidecar {xyz} not found")
        _, dim = coords_meta(xyz)
        writer = ShardedDatasetWriter(args.output, dim=dim, shard_rows=shard_rows,
                                      with_weights=True)
        for pts, w in zip(iter_coords(xyz), iter_metis_weights(args.source)):
            writer.append(pts, weights=w)
        ds = writer.finalize()
    else:
        ds = write_sharded(args.output, iter_coords(args.source), shard_rows=shard_rows)
    print(f"wrote {ds.directory}: n={ds.n} dim={ds.dim} shards={ds.nshards} "
          f"({ds.nbytes / 1e6:.1f} MB)\nmanifest digest {ds.digest}")


def _cmd_partition(args) -> None:
    from repro.experiments.harness import format_rows, run_tool_on_mesh
    from repro.metrics.shape import shape_report

    mesh = _load_mesh(args.instance, args.scale, args.seed)
    print(f"{mesh}")
    row = run_tool_on_mesh(mesh, args.tool, args.k, epsilon=args.epsilon, seed=args.seed)
    print(format_rows([row]))
    if args.shape:
        from repro.partitioners.base import get_partitioner

        result = get_partitioner(args.tool).partition_mesh(mesh, args.k, rng=args.seed)
        print("\nshape:", shape_report(mesh, result.assignment, args.k))


def _cmd_hierarchical(args) -> None:
    import math

    from repro.experiments.harness import format_rows
    from repro.metrics.imbalance import imbalance
    from repro.metrics.report import evaluate_partition
    from repro.partitioners.hierarchical import HierarchicalPartitioner
    from repro.runtime.costmodel import MachineTopology
    from repro.util.timers import Timer

    try:
        levels = tuple(int(part) for part in args.levels.lower().split("x"))
        topology = MachineTopology(branching=levels)
    except ValueError:
        raise SystemExit(f"bad --levels {args.levels!r}; expected positive factors like 2x3x4")
    mesh = _load_mesh(args.instance, args.scale, args.seed)
    partitioner = HierarchicalPartitioner(topology=topology, inner=args.tool)
    with Timer() as t:
        result = partitioner.partition_mesh(mesh, epsilon=args.epsilon, rng=args.seed)
    print(f"{mesh}\nlevels {'x'.join(map(str, levels))} -> k={result.k}, "
          f"inner={args.tool}, imbalance={result.imbalance:.3f}\n")
    for level, name in enumerate(topology.level_names):
        coarse = result.level_assignment(level)
        coarse_k = math.prod(levels[: level + 1])
        print(f"  level {level} ({name:>6}): {coarse_k:>4} blocks, "
              f"imbalance {imbalance(coarse, coarse_k, mesh.node_weights):.3f}")
    row = evaluate_partition(mesh, result.assignment, result.k,
                             tool=f"Hier({args.tool})", time=t.elapsed)
    print()
    print(format_rows([row]))


def _cmd_repartition(args) -> None:
    from repro.experiments import repartitioning

    rows = repartitioning.run(n=args.n, k=args.k, steps=args.steps,
                              epsilon=args.epsilon, seed=args.seed,
                              checkpoint_dir=args.checkpoint_dir)
    print(repartitioning.format_result(
        rows, title=f"adaptive repartitioning: n={args.n}, k={args.k}, {args.steps} steps"))


def _cmd_compare(args) -> None:
    from repro.experiments.harness import format_rows, run_tools_on_mesh

    mesh = _load_mesh(args.instance, args.scale, args.seed)
    rows = run_tools_on_mesh(mesh, args.k, seed=args.seed)
    print(format_rows(rows, title=f"{mesh.name}: all tools, k={args.k}"))


def _cmd_refine(args) -> None:
    from repro.experiments.harness import PAPER_TOOLS
    from repro.partitioners.base import get_partitioner
    from repro.refine.fm import fm_refine

    mesh = _load_mesh(args.instance, args.scale, args.seed)
    print(f"{mesh}, k={args.k}\n")
    print(f"{'tool':<14}{'cut before':>11}{'cut after':>11}{'gain':>8}{'moves':>7}")
    print("-" * 51)
    for tool in PAPER_TOOLS:
        result = get_partitioner(tool).partition_mesh(mesh, args.k, rng=args.seed)
        _, stats = fm_refine(mesh, result.assignment, args.k, max_passes=args.passes)
        print(f"{tool:<14}{stats.cut_before:>11}{stats.cut_after:>11}{stats.improvement:>7.1%}{stats.moves:>7}")


def _cmd_visualize(args) -> None:
    from repro.partitioners.base import get_partitioner
    from repro.viz.svg import render_partition_svg

    mesh = _load_mesh(args.instance, args.scale, args.seed)
    result = get_partitioner(args.tool).partition_mesh(mesh, args.k, rng=args.seed)
    render_partition_svg(mesh, result.assignment, path=args.output,
                         title=f"{args.tool} on {mesh.name}, k={args.k}")
    print(f"wrote {args.output}")


def _cmd_distributed(args) -> None:
    if args.ondisk:
        return _cmd_distributed_ondisk(args)
    from repro.experiments.harness import format_ledger, format_rows, run_distributed_on_mesh

    mesh = _load_mesh(args.instance, args.scale, args.seed)
    print(f"{mesh}")
    provenance = None
    if args.checkpoint_dir is not None:
        # everything `repro resume` needs to rebuild this exact run from the
        # checkpoint file alone
        provenance = {
            "instance": args.instance, "scale": args.scale, "seed": args.seed,
            "epsilon": args.epsilon, "kernel_backend": args.kernel_backend,
            "k": args.k, "nranks": args.nranks,
        }
    row, result = run_distributed_on_mesh(
        mesh, args.k, args.nranks, backend=args.backend,
        epsilon=args.epsilon, seed=args.seed,
        kernel_backend=args.kernel_backend,
        checkpoint=args.checkpoint_dir, checkpoint_every=args.checkpoint_every,
        provenance=provenance,
    )
    print(format_rows([row]))
    state = "converged" if result.converged else "iteration cap"
    print(f"\nbackend={result.backend} p={result.nranks}: "
          f"{result.iterations} iterations ({state}), imbalance {result.imbalance:.3f}")
    print(format_ledger(result.ledger, measured=result.measured))


def _cmd_distributed_ondisk(args) -> None:
    from repro.core.config import BalancedKMeansConfig
    from repro.experiments.harness import format_ledger
    from repro.io.sharded import ShardedDataset
    from repro.runtime.ondisk import ondisk_distributed_kmeans

    dataset = ShardedDataset(args.instance)
    print(f"sharded dataset {args.instance}: n={dataset.n} dim={dataset.dim} "
          f"shards={dataset.nshards}")
    cfg = BalancedKMeansConfig(epsilon=args.epsilon)
    provenance = None
    if args.checkpoint_dir is not None:
        provenance = {
            "manifest": args.instance, "epsilon": args.epsilon, "seed": args.seed,
            "k": args.k, "nranks": args.nranks,
        }
    result = ondisk_distributed_kmeans(
        dataset, args.k, args.nranks, config=cfg, rng=args.seed,
        backend=args.backend, spill_dir=args.spill_dir,
        checkpoint=args.checkpoint_dir, checkpoint_every=args.checkpoint_every,
        provenance=provenance,
    )
    state = "converged" if result.converged else "iteration cap"
    print(f"backend={result.backend} p={result.nranks}: "
          f"{result.iterations} iterations ({state}), imbalance {result.imbalance:.3f}")
    print(f"assignment (original order): {result.assignment_handle.path}")
    print(format_ledger(result.ledger, measured=result.measured))
    if args.shuffle_out is not None:
        from repro.runtime.shuffle import shuffle_to_disk, verify_shuffle

        output = shuffle_to_disk(result, args.shuffle_out, backend=args.backend)
        report = verify_shuffle(output)
        print(f"\nshuffled to {args.shuffle_out}: counts={report['counts']} "
              f"(conservation verified)")


def _cmd_resume(args) -> None:
    import os

    from repro.runtime.checkpoint import load_resume

    _, meta = load_resume(args.checkpoint)
    kind = meta.get("kind", "<missing>")
    provenance = meta.get("provenance")
    source_dir = args.checkpoint if os.path.isdir(args.checkpoint) else None

    if kind == "distributed-kmeans":
        if not provenance or "instance" not in provenance:
            raise SystemExit(
                "checkpoint carries no CLI provenance (the run was launched through "
                "the API); resume it with distributed_balanced_kmeans(resume_from=...) "
                "against the original points instead"
            )
        from repro.experiments.harness import format_ledger, format_rows, run_distributed_on_mesh

        mesh = _load_mesh(provenance["instance"], float(provenance["scale"]),
                          int(provenance["seed"]))
        nranks = args.nranks if args.nranks is not None else int(meta["nshards"])
        every = (args.checkpoint_every if args.checkpoint_every is not None
                 else int(meta.get("checkpoint_every", 1)))
        checkpoint_dir = args.checkpoint_dir if args.checkpoint_dir is not None else source_dir
        print(f"{mesh}\nresuming distributed run at iteration {meta['iteration']} "
              f"(shards={meta['nshards']}, ranks={nranks})")
        row, result = run_distributed_on_mesh(
            mesh, int(provenance["k"]), nranks, backend=args.backend,
            epsilon=float(provenance["epsilon"]), seed=int(provenance["seed"]),
            kernel_backend=provenance.get("kernel_backend"),
            checkpoint=checkpoint_dir, checkpoint_every=every,
            resume_from=args.checkpoint, provenance=provenance,
        )
        print(format_rows([row]))
        state = "converged" if result.converged else "iteration cap"
        print(f"\nbackend={result.backend} p={result.nranks}: "
              f"{result.iterations} iterations ({state}), imbalance {result.imbalance:.3f}")
        print(format_ledger(result.ledger, measured=result.measured))
    elif kind == "distributed-kmeans-ondisk":
        if not provenance or "manifest" not in provenance:
            raise SystemExit(
                "checkpoint carries no CLI provenance (the run was launched through "
                "the API); resume it with ondisk_distributed_kmeans(resume_from=...) "
                "against the original dataset instead"
            )
        from repro.core.config import BalancedKMeansConfig
        from repro.experiments.harness import format_ledger
        from repro.runtime.ondisk import ondisk_distributed_kmeans

        nranks = args.nranks if args.nranks is not None else int(meta["nshards"])
        every = (args.checkpoint_every if args.checkpoint_every is not None
                 else int(meta.get("checkpoint_every", 1)))
        checkpoint_dir = args.checkpoint_dir if args.checkpoint_dir is not None else source_dir
        print(f"resuming out-of-core run at iteration {meta['iteration']} "
              f"(shards={meta['nshards']}, ranks={nranks})")
        result = ondisk_distributed_kmeans(
            provenance["manifest"], int(provenance["k"]), nranks,
            config=BalancedKMeansConfig(epsilon=float(provenance["epsilon"])),
            backend=args.backend,
            checkpoint=checkpoint_dir, checkpoint_every=every,
            resume_from=args.checkpoint, provenance=provenance,
        )
        state = "converged" if result.converged else "iteration cap"
        print(f"backend={result.backend} p={result.nranks}: "
              f"{result.iterations} iterations ({state}), imbalance {result.imbalance:.3f}")
        print(f"assignment (original order): {result.assignment_handle.path}")
        print(format_ledger(result.ledger, measured=result.measured))
    elif kind == "repartition":
        if not provenance:
            raise SystemExit("repartition checkpoint carries no provenance; cannot resume")
        if source_dir is None:
            source_dir = os.path.dirname(os.path.abspath(args.checkpoint))
        checkpoint_dir = args.checkpoint_dir if args.checkpoint_dir is not None else source_dir
        from repro.experiments import repartitioning

        print(f"resuming repartition experiment after step {meta['step']}")
        rows = repartitioning.run(
            n=int(provenance["n"]), k=int(provenance["k"]), steps=int(provenance["steps"]),
            epsilon=float(provenance["epsilon"]), seed=int(provenance["seed"]),
            tool=provenance["tool"], radii=tuple(provenance["radii"]),
            checkpoint_dir=checkpoint_dir,
        )
        print(repartitioning.format_result(
            rows, title=f"adaptive repartitioning: n={provenance['n']}, "
                        f"k={provenance['k']}, {provenance['steps']} steps"))
    else:
        raise SystemExit(
            f"don't know how to resume a {kind!r} checkpoint from the CLI"
        )


def _cmd_spmv(args) -> None:
    import numpy as np

    from repro.experiments.harness import format_ledger
    from repro.partitioners.base import get_partitioner
    from repro.runtime.comm import make_comm
    from repro.spmv.distspmv import distributed_spmv

    mesh = _load_mesh(args.instance, args.scale, args.seed)
    result = get_partitioner(args.tool).partition_mesh(mesh, args.k, rng=args.seed)
    x = np.random.default_rng(args.seed).random(mesh.n)
    with make_comm(args.nranks, backend=args.backend) as comm:
        y, comm_time = distributed_spmv(mesh, result.assignment, args.k, x, comm=comm)
        err = float(np.abs(y - mesh.to_scipy() @ x).max())
        print(f"{mesh}\n{args.tool} partition, k={args.k}, p={comm.nranks}, "
              f"backend={comm.kind}")
        print(f"max |y_dist - y_global| = {err:.3e}  (halo plan complete: {err == 0.0})")
        print(f"modeled halo-exchange time: {comm_time:.3e} s")
        print(format_ledger(comm.ledger, measured=comm.measured))


def _cmd_mpi(args) -> int:
    from repro.runtime.mpi_main import main as mpi_main

    return mpi_main(args.mpi_argv)


def _cmd_scaling(args) -> None:
    from repro.experiments import figure3

    # asking for a backend means asking for measured points: raise the
    # measured cutoff so small rank counts actually execute on it
    measured_max = args.measured_max_ranks
    if measured_max is None and args.backend is not None:
        measured_max = 16
    extra = {} if measured_max is None else {"measured_max_ranks": measured_max}
    if args.mode == "weak":
        ranks = tuple(args.ranks) if args.ranks else (32, 128, 512, 2048, 8192)
        points = figure3.run_weak(rank_counts=ranks, seed=args.seed,
                                  backend=args.backend, **extra)
    else:
        ranks = tuple(args.ranks) if args.ranks else (1024, 2048, 4096, 8192, 16384)
        points = figure3.run_strong(rank_counts=ranks, seed=args.seed,
                                    backend=args.backend, **extra)
    print(figure3.format_points(points, title=f"{args.mode} scaling"))


def _cmd_experiments(args) -> None:
    from repro.experiments import (
        components,
        figure1,
        figure2,
        figure3,
        figure4,
        repartitioning,
        tables,
    )

    if args.name == "figure1":
        outputs = figure1.run(args.out, seed=args.seed)
        for panel, path in outputs.items():
            print(f"{panel}: {path}")
    elif args.name == "figure2":
        print(figure2.format_result(figure2.run(k=16, scale=args.scale, seed=args.seed)))
    elif args.name == "figure3":
        print(figure3.format_points(figure3.run_weak(seed=args.seed), "Figure 3a"))
        print()
        print(figure3.format_points(figure3.run_strong(seed=args.seed), "Figure 3b"))
    elif args.name == "figure4":
        print(figure4.format_result(figure4.run(scale=args.scale, seed=args.seed)))
    elif args.name == "table1":
        print(tables.format_table(tables.run_table1(scale=args.scale, seed=args.seed), "Table 1 (scaled)"))
    elif args.name == "table2":
        print(tables.format_table(tables.run_table2(scale=args.scale, seed=args.seed), "Table 2 (scaled)"))
    elif args.name == "components":
        print(components.format_result(components.run(seed=args.seed)))
    elif args.name == "repartition":
        n = max(500, int(3000 * args.scale * 4))
        print(repartitioning.format_result(repartitioning.run(n=n, seed=args.seed)))


def _cmd_serve(args) -> None:
    import asyncio

    from repro.service.server import serve

    def announce() -> None:
        print(f"partitioning server listening on {args.socket}", flush=True)
        if args.checkpoint_dir:
            print(f"session checkpoints under {args.checkpoint_dir}", flush=True)

    asyncio.run(serve(
        args.socket,
        checkpoint_dir=args.checkpoint_dir,
        cache_capacity=args.cache_capacity,
        compute_threads=args.compute_threads,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        compute_timeout=args.compute_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        drain_grace=args.drain_grace,
        ready_callback=announce,
    ))


def _cmd_bench_service(args) -> None:
    from repro.service.loadtest import format_report, run_load_test

    report = run_load_test(
        socket_path=args.socket,
        n_points=args.n_points,
        k=args.k,
        epsilon=args.epsilon,
        clients=args.clients,
        requests_per_client=args.requests,
        distinct_seeds=args.seeds,
        cache_capacity=args.cache_capacity,
        compute_threads=args.compute_threads,
        seed=args.seed,
        verify_identity=not args.no_verify,
        out_json=args.out_json,
        retries=args.retries,
        deadline_ms=args.deadline_ms,
        request_timeout=args.request_timeout,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
    )
    print(format_report(report))
    if args.out_json:
        print(f"wrote {args.out_json}")
    if report["errors"] or not report["identity_ok"] or report["unjoined_workers"]:
        raise SystemExit(1)


def main(argv: list[str] | None = None) -> int:
    from repro.runtime.checkpoint import CheckpointError

    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=4, suppress=True)
    dispatch = {
        "list": lambda: _cmd_list(),
        "convert": lambda: _cmd_convert(args),
        "partition": lambda: _cmd_partition(args),
        "hierarchical": lambda: _cmd_hierarchical(args),
        "repartition": lambda: _cmd_repartition(args),
        "compare": lambda: _cmd_compare(args),
        "refine": lambda: _cmd_refine(args),
        "visualize": lambda: _cmd_visualize(args),
        "distributed": lambda: _cmd_distributed(args),
        "resume": lambda: _cmd_resume(args),
        "spmv": lambda: _cmd_spmv(args),
        "mpi": lambda: _cmd_mpi(args),
        "scaling": lambda: _cmd_scaling(args),
        "experiments": lambda: _cmd_experiments(args),
        "serve": lambda: _cmd_serve(args),
        "bench-service": lambda: _cmd_bench_service(args),
    }
    try:
        code = dispatch[args.command]()
    except (ValueError, CheckpointError) as exc:
        # domain errors (k > n, a bad config value, an unusable checkpoint)
        # end in one line on stderr and exit status 1, not a traceback
        raise SystemExit(f"repro {args.command}: {exc}") from exc
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main())
