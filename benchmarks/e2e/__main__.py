"""Command line of the end-to-end benchmark.

Run from the repository root::

    python -m benchmarks.e2e run [--workload NAME ...] [--seed N] [--reps N]
                                 [--trace [0|1]] [--out DIR]
    python -m benchmarks.e2e compare PARENT CHANGE [--json FILE]

``run`` prints one ``workload metric value unit n=<samples>`` line per
metric and, last, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics untraced, the
per-layer metrics with ``--trace 1``.  It exits non-zero when an
operation failed or an output missed its oracle.  Each workload measures
for ``run_seconds`` from ``BENCHMARK.json``; ``--seconds`` is accepted
only with that value.  Everything it writes stays inside the checkout:
the native kernel build, working stores and temporary files under
``benchmarks/results/e2e/``, run records under ``--out`` and one line
per run in ``--history``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "benchmarks" / "results" / "e2e"
HERE = Path(__file__).resolve().parent
SPEC = ROOT / "BENCHMARK.json"

#: Tail percentiles tried, highest first; the report shows the highest
#: one with at least ten samples beyond it.
TAILS = (99.9, 99.0, 90.0)
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3


def prepare() -> None:
    """Keep every artefact inside the checkout, then find its ``repro``.

    Exits (non-zero, printing no result) when the checkout holds no
    ``src/repro`` — an installed copy elsewhere is never benchmarked.
    """
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    tempfile.tempdir = None
    paths = [str(ROOT / "src"), str(ROOT)]
    extra = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + extra)
    sys.path[:0] = [p for p in paths if p not in sys.path]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import repro from {ROOT / 'src'}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro resolved to {repro.__file__}, outside {ROOT / 'src'}")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)


def warm_up() -> None:
    """Fill the caches every run after a checkout's first finds filled.

    Compiles the bytecode of the library and the benchmark and builds
    the native kernel tier, in child processes, so neither the probes'
    set-up times nor this process's peak RSS include a one-off compile.
    """
    for code in (
        "import compileall; compileall.compile_dir('src', quiet=1); "
        "compileall.compile_dir('benchmarks/e2e', quiet=1)",
        "from repro.native import loader; loader.available()",
    ):
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=False)


def kernel_tier() -> str:
    """The effective kernel tier, loaded into this process."""
    from repro.native import loader
    from repro.native.dispatch import get_kernel_tier

    tier = get_kernel_tier()
    if tier in ("auto", "native"):
        return "native" if loader.available() else "numpy"
    return tier


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def filesystem(path: Path) -> str:
    """Type of the filesystem holding *path*, from /proc/mounts."""
    target, best, kind = str(path.resolve()), "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and target.startswith(fields[1]) and len(fields[1]) > len(best):
            best, kind = fields[1], fields[2]
    return kind


def environment(tier: str) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "kernel_tier": tier,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "store_fs": filesystem(BUILD),
    }


# -- set-up time ---------------------------------------------------------------


def probe(name: str, args) -> tuple[float, float]:
    """Time a fresh interpreter from its start to its first timed operation.

    The child takes host-speed references at its own boundaries and
    reports them with the moment it became ready; merged with the
    references taken here before and after, they normalise the whole
    interval.  Returns (normalised, raw) seconds.
    """
    from benchmarks.e2e.speed import Meter

    meter = Meter(frozenset(os.sched_getaffinity(0)))
    meter.reference()
    command = [
        sys.executable, "-m", "benchmarks.e2e", "probe", "--workload", name,
        "--seed", str(args.seed), "--pinned", args.pinned,
    ]
    if args.reps is not None:
        command += ["--reps", str(args.reps)]
    start = time.perf_counter()
    report = None
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        for line in child.stdout:
            if line.startswith("ready "):
                report = json.loads(line[len("ready "):])
                break
        child.stdout.read()
        code = child.wait(timeout=120)
    if code != 0 or report is None:
        raise RuntimeError(f"set-up probe for {name} exited with {code}")
    meter.reference()
    meter.samples = sorted(meter.samples + [tuple(s) for s in report["samples"]])
    return meter.normalise(start, report["ready"]), report["ready"] - start


def make_workload(name: str, args, pinned: dict, tracer=None):
    from benchmarks.e2e.speed import Meter
    from benchmarks.e2e.workloads import WORKLOADS, Context, spread_subdirectories

    cls = WORKLOADS[name]
    work = BUILD / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spread_subdirectories(work)
    ctx = Context(
        seed=args.seed, seconds=args.seconds, reps=args.reps, work=work, pinned=pinned,
        meter=Meter(cls.meter_cpus()), tracer=tracer,
    )
    return cls(ctx)


def run_probe(args) -> int:
    """One timed set-up in this fresh interpreter (the ``probe`` command)."""
    from benchmarks.e2e.speed import Meter

    meter = Meter()
    meter.reference()
    prepare()
    meter.tick()
    kernel_tier()
    meter.tick()
    workload = make_workload(args.workload[0], args, json.loads(Path(args.pinned).read_text()))
    workload.ctx.meter = meter
    try:
        workload.setup()
        ready = time.perf_counter()
        meter.reference()
        print("ready " + json.dumps({"ready": ready, "samples": meter.samples}), flush=True)
    finally:
        workload.teardown()
        shutil.rmtree(workload.ctx.work, ignore_errors=True)
    return 0


# -- metrics -------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest tail with >= 10 samples beyond it."""
    import numpy as np

    for q in TAILS:
        if len(values) * (1 - q / 100) >= 10:
            return q, float(np.percentile(values, q))
    return None


def end_to_end(m, setup_samples: list[float]) -> dict[str, tuple[float, str, int]]:
    """metric → (value, unit, samples), in BENCHMARK.json order."""
    latency = m.durations(m.latency)
    throughput = m.throughput()
    return {
        "setup_s": (_median(setup_samples), "s", len(setup_samples)),
        "latency_ms": (_median(latency) * 1e3, "ms", len(latency)),
        "throughput": (_median(throughput), "items/s", len(throughput)),
        "peak_rss_mb": (m.peak_rss_mb, "MiB", 1),
    }


def per_layer(m, spans: list[tuple]) -> dict[str, tuple[float, str, int]]:
    """metric → (value, unit, samples) for the traced repetitions.

    Self times are per repetition and scaled to nominal host speed like
    the end-to-end timings; shares and coverage are ratios of raw times
    within the traced repetitions.
    """
    import threading

    from benchmarks.e2e.tracing import LAYERS, layer_totals, self_times

    c = m.counters
    reps = max(c.get("reps", len(m.traced_walls_s)), 1)
    wall = sum(m.traced_walls_s) or 1.0
    traced = m.durations(m.traced_latency)
    scale = sum(traced) / (sum(m.durations(m.traced_latency, raw=True)) or 1.0)
    totals = layer_totals(spans + m.child_spans)
    out: dict[str, tuple[float, str, int]] = {}
    for layer in LAYERS:
        slot = totals[layer]
        out[f"{layer}.calls"] = (slot["calls"] / reps, "count", reps)
        out[f"{layer}.self_s"] = (slot["self_s"] * scale / reps, "s", reps)
        out[f"{layer}.share"] = (slot["self_s"] / wall, "ratio", reps)
    if m.child_spans:
        # serve: the server's layers run in another process; the rest of
        # each message's latency is event loop, pool queue and TCP.
        wait = wall - sum(slot["self_s"] for slot in totals.values())
        coverage = 1.0
    else:
        wait = 0.0
        main = threading.main_thread().ident
        coverage = sum(self_times([s for s in spans if s[6] == main])) / wall
    out["serve.wait.self_s"] = (wait * scale / reps, "s", reps)
    out["serve.wait.share"] = (wait / wall, "ratio", reps)
    out.update({
        "core.lambda_adjustments": (c.get("core.lambda_adjustments", 0) / reps, "count", reps),
        "cache.write.bytes": (c.get("cache.write.bytes", 0) / reps, "bytes", reps),
        "cache.disk_evictions": (c.get("cache.disk_evictions", 0) / reps, "count", reps),
        "cache.hit_ratio": (c.get("cache.hits", 0) / max(c.get("cache.lookups", 0), 1), "ratio", reps),
        "dag.nodes_run": (c.get("dag.nodes_run", 0) / reps, "count", reps),
        "dag.nodes_restored": (c.get("dag.nodes_restored", 0) / reps, "count", reps),
        "dag.waves": (totals["runtime.dispatch"]["calls"] / reps, "count", reps),
        "serve.codec.bytes": (totals["serve.codec"]["bytes"] / reps, "bytes", reps),
        "trace.coverage": (coverage, "ratio", reps),
        "trace.overhead": (
            _median(traced) / (_median(m.durations(m.latency)) or 1.0) - 1.0, "ratio", reps
        ),
    })
    return out


def layer_table(name: str, metrics: dict) -> str:
    """The traced per-layer breakdown, largest share first."""
    from benchmarks.e2e.tracing import LAYERS

    rows = [
        (layer, metrics.get(f"{layer}.calls", (None,))[0], metrics[f"{layer}.self_s"][0],
         metrics[f"{layer}.share"][0])
        for layer in list(LAYERS) + ["serve.wait"]
        if metrics[f"{layer}.share"][0] > 0
    ]
    rows.sort(key=lambda row: -row[3])
    lines = [f"{name}: per-layer self time per repetition (traced)"]
    lines.append(f"  {'layer':<20} {'calls':>9} {'self ms':>10} {'share':>7}")
    for layer, calls, self_s, share in rows:
        calls_text = "-" if calls is None else f"{calls:.1f}"
        lines.append(f"  {layer:<20} {calls_text:>9} {self_s * 1e3:>10.3f} {share:>7.1%}")
    return "\n".join(lines)


# -- run -----------------------------------------------------------------------


def run_one(name: str, args, pinned: dict, trace_path: Path) -> dict:
    from benchmarks.e2e.tracing import Tracer, dump

    # Write back what earlier runs left dirty, so no timing here competes
    # with their writeback and journal traffic; again after set-up.
    os.sync()
    n_probes = 0 if args.trace else min(SETUP_PROBES, args.reps or SETUP_PROBES)
    probes = [probe(name, args) for _ in range(n_probes)]
    setup_samples = [normalised for normalised, _ in probes]
    tracer = Tracer() if args.trace else None
    workload = make_workload(name, args, pinned, tracer)
    try:
        workload.setup()
        os.sync()
        m = workload.measure()
    finally:
        workload.teardown()
        shutil.rmtree(workload.ctx.work, ignore_errors=True)
    if args.trace:
        metrics = per_layer(m, tracer.spans)
        dump(tracer.spans, trace_path, workload=name, process="bench")
        dump(m.child_spans, trace_path, workload=name, process="server")
    else:
        metrics = end_to_end(m, setup_samples)
    for metric, (value, unit, n) in metrics.items():
        print(f"{name} {metric} {value:.6g} {unit} n={n}")
    print(f"{name} failed_frac {m.failed / max(m.attempted, 1):.6g} ratio n={m.attempted}")
    latencies = m.durations(m.traced_latency if args.trace else m.latency)
    found = tail(latencies)
    if found is not None:
        q, value = found
        print(f"{name} latency_p{q:g}_ms {value * 1e3:.6g} ms n={len(latencies)}")
        if name == "serve":
            from benchmarks.e2e.workloads import LATENCY_LIMIT_MS

            verdict = "met" if value * 1e3 <= LATENCY_LIMIT_MS else "missed"
            print(f"{name} latency_limit p{q:g}<={LATENCY_LIMIT_MS:g}ms {verdict}")
    if not args.trace:
        m.notes["latency_raw_ms"] = _median(m.durations(m.latency, raw=True)) * 1e3
        m.notes["throughput_raw"] = _median(m.throughput(raw=True))
        m.notes["setup_raw_s"] = _median([raw for _, raw in probes])
    m.notes["host_speed"] = m.meter.speed()
    for note, value in m.notes.items():
        print(f"{name} {note} {value!r}")
    for problem in m.problems:
        print(f"{name} FAILED {problem}", file=sys.stderr)
    if args.trace:
        print(layer_table(name, metrics))
    return {
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "attempted": m.attempted,
        "failed": m.failed,
        "correct": m.failed == 0,
        "notes": m.notes,
    }


def run(args) -> int:
    prepare()
    from benchmarks.e2e.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    pinned = json.loads(Path(args.pinned).read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.jsonl"
    if args.trace:
        trace_path.unlink(missing_ok=True)
    warm_up()
    tier = kernel_tier()
    results = {name: run_one(name, args, pinned, trace_path) for name in names}
    record = {
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "env": environment(tier),
        "workloads": results,
    }
    line = json.dumps(record, sort_keys=True) + "\n"
    with open(out / "runs.jsonl", "a") as fh:
        fh.write(line)
    if args.history:
        with open(args.history, "a") as fh:
            fh.write(line)
    single = len(names) == 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (metric if single else f"{name}/{metric}"): {"value": v["value"], "unit": v["unit"]}
            for name, r in results.items()
            for metric, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "probe"):
        p = sub.add_parser(command, help="run workloads" if command == "run" else argparse.SUPPRESS)
        p.add_argument("--workload", nargs="+", action="extend", default=[],
                       help="workload name(s); default all")
        p.add_argument("--seed", type=int, default=2003, help="input seed (default 2003)")
        p.add_argument("--seconds", type=float, default=None,
                       help="measurement time per workload; must equal run_seconds "
                            "in BENCHMARK.json, its default")
        p.add_argument("--reps", type=int, default=None,
                       help="stop after this many timed repetitions (serve: blocks per "
                            "phase) and take at most this many set-ups")
        p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                       help="1: traced run reporting per-layer metrics")
        p.add_argument("--out", default=str(BUILD),
                       help="directory for runs.jsonl and trace.jsonl")
        p.add_argument("--history", default=str(HERE / "history.jsonl"),
                       help="file each run appends one line to ('' for none)")
        p.add_argument("--pinned", default=str(HERE / "pinned.json"),
                       help="pinned panel digests (default seed's oracle)")
    c = sub.add_parser("compare", help="verdicts of CHANGE runs against PARENT runs")
    c.add_argument("parent", type=Path)
    c.add_argument("change", type=Path)
    c.add_argument("--json", type=Path, default=None, help="also write the rows here")
    args = parser.parse_args(argv)
    if args.command == "compare":
        from benchmarks.e2e import compare

        return compare.main(args.parent, args.change, SPEC, args.json)
    # The run length belongs to the benchmark, so both sides of a
    # comparison always measure for the same time.
    run_seconds = json.loads(SPEC.read_text())["run_seconds"]
    if args.seconds not in (None, run_seconds):
        parser.error(f"--seconds must be {run_seconds}, the run_seconds of BENCHMARK.json")
    args.seconds = float(run_seconds)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.command == "probe":
        return run_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
