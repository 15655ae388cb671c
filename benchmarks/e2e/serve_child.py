"""The server side of the ``serve`` workload, run in its own process.

Usage: ``python -m benchmarks.e2e.serve_child DIR SEED SPANS CPU``.

Pins itself to CPU, starts a :class:`~repro.serve.ReproServer` with two
pool threads and the benchmark's durable tenant, checkpointing under
DIR, and prints ``{"port": N}`` once it listens.  When a line (or EOF)
arrives on stdin it drains, stops and prints ``{"peak_rss_mb": X}``.
With SPANS other than ``-`` the tracer's wrappers are installed for the
server's whole life and the spans are written to that file at shutdown.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path


async def serve(directory: Path, seed: int, spans: str) -> None:
    from benchmarks.e2e.tracing import Tracer, dump
    from benchmarks.e2e.workloads import peak_rss_mb, tenant_config
    from repro.serve import ReproServer, ServerConfig

    tracer = None
    if spans != "-":
        tracer = Tracer()
        tracer.rep = 0
        tracer.install()
    server = ReproServer(ServerConfig(checkpoint_dir=directory, jobs=2))
    server.registry.put(tenant_config(seed))
    await server.start()
    print(json.dumps({"port": server.ingest_port}), flush=True)
    await asyncio.to_thread(sys.stdin.readline)
    await server.drain()
    await server.stop()
    if tracer is not None:
        tracer.uninstall()
        dump(tracer.spans, Path(spans))
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)


def main(argv: list[str]) -> int:
    directory, seed, spans, cpu = Path(argv[0]), int(argv[1]), argv[2], int(argv[3])
    os.sched_setaffinity(0, {cpu})
    asyncio.run(serve(directory, seed, spans))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
