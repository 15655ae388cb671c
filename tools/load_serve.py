"""Load-test harness for ``repro.serve``: throughput and churn phases.

Two phases against an in-process :class:`~repro.serve.ReproServer`:

* **throughput** — hundreds of concurrent synthetic Eq. (1) streams
  (each client a real TCP connection speaking the NDJSON ingest
  protocol) through a non-durable tenant, recording aggregate
  frames/sec and the pooled per-message round-trip latency
  distribution (p50/p99/mean).  A sample of streams is checked
  byte-for-byte against the batch oracle
  (:func:`repro.stream.run_batch`).
* **churn** — durable streams under a chaos monkey that abruptly kills
  connections mid-message, plus one mid-load graceful drain followed
  by a server restart on the same port and checkpoint directory.
  Every stream must finish **byte-identical** to the batch oracle with
  an exactly equal Ψ — the serve layer's resume contract, witnessed
  under fire.

Usage::

    PYTHONPATH=src python tools/load_serve.py            # full sizes
    PYTHONPATH=src python tools/load_serve.py --quick    # CI sizes

``--quick`` shrinks stream counts and lengths so the run finishes in
seconds; full size runs >= 500 concurrent streams in the throughput
phase.  The JSON report goes to ``benchmarks/results/load_serve.json``
unless ``--out`` names another path.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve import (  # noqa: E402
    ReproServer,
    ServerConfig,
    StreamClient,
    TenantConfig,
)
from repro.stream import (  # noqa: E402
    ArraySource,
    SyntheticWalkSource,
    read_all,
    run_batch,
)

#: Version of the JSON report's layout.
SERVE_SCHEMA_VERSION = 1


def _raise_fd_limit() -> None:
    """Hundreds of concurrent TCP streams need more than 1024 fds."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    target = min(hard, 8192) if hard > 0 else 8192
    if soft < target:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
        except (OSError, ValueError):  # pragma: no cover - restricted env
            pass


def _walk_stack(shape: tuple[int, ...], seed: int, n_frames: int) -> np.ndarray:
    """One synthetic Eq. (1) random-walk frame stack."""
    return read_all(SyntheticWalkSource(shape, seed=seed, n_frames=n_frames))


def _latency_stats(latencies_s: list[float]) -> tuple[float, float, float]:
    """Pooled per-message round-trip (p50, p99, mean) in milliseconds."""
    pooled = np.asarray(latencies_s, dtype=np.float64) * 1e3
    return (
        float(np.percentile(pooled, 50)),
        float(np.percentile(pooled, 99)),
        float(pooled.mean()),
    )


def _oracle_matches(
    tenant: TenantConfig, frames: np.ndarray, outputs: np.ndarray, psi: float
) -> bool:
    """Does a served stream match the batch pipeline bit-for-bit?"""
    oracle = run_batch(ArraySource(frames), tenant.build_stages())
    return (
        outputs.shape == oracle.output.shape
        and outputs.tobytes() == oracle.output.tobytes()
        and psi == oracle.psi_algorithm
    )


async def _throughput_phase(quick: bool, streams: "int | None") -> dict:
    """Many concurrent streams through one server; measure the envelope."""
    n_streams = streams if streams else (24 if quick else 500)
    n_frames = 64 if quick else 128
    shape = (8, 8)
    tenant = TenantConfig(
        name="load",
        gamma=0.01,
        inject_seed=7,
        upsilon=4,
        stack_frames=8,
        chunk_frames=32,
        durable=False,
    )
    with tempfile.TemporaryDirectory(prefix="repro-serve-load-") as tmp:
        server = ReproServer(ServerConfig(checkpoint_dir=tmp, jobs=4 if quick else 8))
        server.registry.put(tenant)
        await server.start()
        stacks = [
            _walk_stack(shape, seed=1000 + i, n_frames=n_frames)
            for i in range(n_streams)
        ]
        clients = [
            StreamClient(
                "127.0.0.1",
                server.ingest_port,
                tenant.name,
                f"s{i:04d}",
                stacks[i],
                batch_frames=32,
                max_attempts=200,
                retry_delay_s=0.05,
            )
            for i in range(n_streams)
        ]
        t0 = time.perf_counter()
        results = await asyncio.gather(*(c.run() for c in clients))
        elapsed = time.perf_counter() - t0
        messages = server.metrics.counter("messages")
        await server.drain()
        await server.stop()
    sample = sorted({0, 1, n_streams // 2, n_streams - 1})
    bit_identical = all(
        _oracle_matches(
            tenant, stacks[i], results[i].outputs, results[i].result["psi_algorithm"]
        )
        for i in sample
    )
    p50, p99, mean = _latency_stats(
        [t for r in results for t in r.latencies_s]
    )
    total_frames = n_streams * n_frames
    return {
        "streams": n_streams,
        "frames_per_stream": n_frames,
        "total_frames": total_frames,
        "elapsed_s": round(elapsed, 4),
        "frames_per_sec": round(total_frames / elapsed, 1),
        "p50_ms": round(p50, 3),
        "p99_ms": round(p99, 3),
        "mean_ms": round(mean, 3),
        "messages": messages,
        "oracle_streams": len(sample),
        "bit_identical": bit_identical,
    }


async def _churn_phase(quick: bool) -> dict:
    """Chaos kills plus a mid-load drain/restart; every stream must resume."""
    n_streams = 12 if quick else 48
    n_frames = 96 if quick else 160
    batch_frames = 8
    shape = (6, 6)
    tenant = TenantConfig(
        name="churn",
        gamma=0.02,
        inject_seed=3,
        upsilon=4,
        stack_frames=8,
        smoother="median",
        window=5,
        chunk_frames=16,
        durable=True,
    )
    chaos_rate = 0.12
    with tempfile.TemporaryDirectory(prefix="repro-serve-churn-") as tmp:
        server = ReproServer(
            ServerConfig(
                checkpoint_dir=tmp,
                jobs=4,
                chaos_kill_rate=chaos_rate,
                chaos_seed=1234,
            )
        )
        server.registry.put(tenant)
        await server.start()
        ingest_port = server.ingest_port
        stacks = [
            _walk_stack(shape, seed=2000 + i, n_frames=n_frames)
            for i in range(n_streams)
        ]
        tasks = [
            asyncio.ensure_future(
                StreamClient(
                    "127.0.0.1",
                    ingest_port,
                    tenant.name,
                    f"c{i:03d}",
                    stacks[i],
                    batch_frames=batch_frames,
                    max_attempts=400,
                    retry_delay_s=0.05,
                ).run()
            )
            for i in range(n_streams)
        ]
        # Drain once a tenth of the expected messages have landed — far
        # from completion, so the drain provably interrupts live streams.
        threshold = max(
            2, (n_streams * math.ceil(n_frames / batch_frames)) // 10
        )
        while server.metrics.counter("messages") < threshold:
            await asyncio.sleep(0.005)
        await server.drain()
        await server.stop()
        kills = server.chaos.kills
        # Restart on the same ingest port and checkpoint directory: the
        # retrying clients find the new server and resume where the
        # drained one checkpointed them.
        restarted = ReproServer(
            ServerConfig(
                checkpoint_dir=tmp,
                ingest_port=ingest_port,
                jobs=4,
                chaos_kill_rate=chaos_rate,
                chaos_seed=4321,
            )
        )
        await restarted.start()
        results = await asyncio.gather(*tasks)
        kills += restarted.chaos.kills
        await restarted.drain()
        await restarted.stop()
    oracles = [
        run_batch(ArraySource(stacks[i]), tenant.build_stages())
        for i in range(n_streams)
    ]
    bit_identical = all(
        results[i].outputs.shape == oracles[i].output.shape
        and results[i].outputs.tobytes() == oracles[i].output.tobytes()
        for i in range(n_streams)
    )
    psi_exact = all(
        results[i].result["psi_algorithm"] == oracles[i].psi_algorithm
        for i in range(n_streams)
    )
    return {
        "streams": n_streams,
        "frames_per_stream": n_frames,
        "chaos_kills": kills,
        "reconnects": sum(r.reconnects for r in results),
        "drains": sum(r.drained for r in results),
        "restarts": 1,
        "bit_identical": bit_identical,
        "psi_exact": psi_exact,
    }


def build_serve_report(quick: bool, streams: "int | None" = None) -> dict:
    """Run both phases and assemble the JSON report."""
    _raise_fd_limit()
    throughput = asyncio.run(_throughput_phase(quick, streams))
    churn = asyncio.run(_churn_phase(quick))
    return {
        "schema_version": SERVE_SCHEMA_VERSION,
        "generated_by": "tools/load_serve.py" + (" --quick" if quick else ""),
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "throughput": throughput,
        "churn": churn,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small stream counts and lengths (CI mode)",
    )
    parser.add_argument(
        "--streams",
        type=int,
        default=None,
        help="override the throughput phase's concurrent stream count",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "results" / "load_serve.json",
        help="report path (default: benchmarks/results/load_serve.json)",
    )
    args = parser.parse_args(argv)
    report = build_serve_report(args.quick, args.streams)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    t = report["throughput"]
    print(
        f"throughput: {t['streams']} streams x {t['frames_per_stream']} frames "
        f"in {t['elapsed_s']}s  ({t['frames_per_sec']} frames/s)  "
        f"p50={t['p50_ms']}ms p99={t['p99_ms']}ms  "
        f"oracle bit-identical={t['bit_identical']}"
    )
    c = report["churn"]
    print(
        f"churn: {c['streams']} streams, {c['chaos_kills']} chaos kills, "
        f"{c['reconnects']} reconnects, {c['drains']} drains, "
        f"{c['restarts']} restart  bit-identical={c['bit_identical']} "
        f"psi-exact={c['psi_exact']}"
    )
    print(f"wrote {args.out}")
    if not (t["bit_identical"] and c["bit_identical"] and c["psi_exact"]):
        print("BIT-IDENTITY FAILURE", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
