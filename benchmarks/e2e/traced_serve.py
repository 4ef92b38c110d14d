"""Run the partitioning server with the benchmark's span wrappers installed.

    python benchmarks/e2e/traced_serve.py SOCKET --flag FLAG --spans OUT.json [--checkpoint-dir DIR]

Behaves like ``python -m repro serve SOCKET``; spans are recorded while the
shared flag file ``FLAG`` holds a non-negative operation id, and are written
to ``OUT.json`` when the server shuts down.  Request dispatch and compute
spans are recorded always, so the benchmark can match them to its requests.
"""

from __future__ import annotations

import argparse
import asyncio

from trace import Tracer


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("socket")
    parser.add_argument("--flag", required=True, help="shared operation-flag file")
    parser.add_argument("--spans", required=True, help="where to write the spans on shutdown")
    parser.add_argument("--checkpoint-dir", default=None)
    args = parser.parse_args(argv)
    tracer = Tracer(flag_path=args.flag, owner=False).install(always_layers=("request", "driver"))
    from repro.service.server import serve

    try:
        asyncio.run(serve(args.socket, checkpoint_dir=args.checkpoint_dir))
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    main()
