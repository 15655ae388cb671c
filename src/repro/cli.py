"""Command-line entry point: regenerate any of the paper's figures.

Usage::

    repro list
    repro fig2 [--quick] [--jobs N] [--progress]
    repro all [--quick] [--json OUT.json]
    repro report [--quick] [--resume] [--plan] [--out REPORT.md]
    repro report --only fig5 --resume     # resume one experiment
    repro dag show [report|fig2] [--dot]
    repro stream [--frames N] [--chunk-frames K] [--progress]
    repro serve [--port P] [--control-port C] [--checkpoint-dir DIR]
    repro fig2 --cache-dir .repro-cache   # persist artifacts across runs
    repro cache stats|clear [--cache-dir DIR]
    repro kernels [--json] [--require native]
    repro fig2 --threads 4                # thread-pool shards

``--quick`` shrinks repeats/grids so every experiment finishes in
seconds; default parameters match the EXPERIMENTS.md record.

``--jobs N`` runs each experiment's trial loops across N worker
processes; results are bit-identical to a serial run because every
trial's seed comes from the same ``SeedSequence`` spawn tree.
``--progress`` prints per-shard telemetry (timing, trials/sec) to
stderr.  See docs/RUNTIME.md.  A per-experiment run keeps no state
between invocations; to make one resumable, run it through the report
graph instead: ``repro report --only fig5 --resume`` picks up an
interrupted run from the artifacts already in the store.

``repro stream`` runs the bounded-memory streaming pipeline instead of
a batch experiment; its flags live in :mod:`repro.stream.cli` and its
semantics in docs/STREAMING.md.  ``repro serve`` starts the always-on
multi-tenant streaming service (:mod:`repro.serve.cli`, docs/SERVING.md).
``repro report`` materializes every experiment as one resumable DAG run
and ``repro dag show`` inspects the graph without running it; both live
in :mod:`repro.dag.cli` (docs/ORCHESTRATION.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cache import ArtifactCache
from repro.config import STRATEGY_CHOICES
from repro.exceptions import ReproError
from repro.experiments.registry import REGISTRY, run_experiment
from repro.runtime import (
    BACKEND_CHOICES,
    ProgressPrinter,
    Telemetry,
    TrialRuntime,
    resolve_backend,
)

#: Parameter overrides applied by --quick, per experiment.
_QUICK_OVERRIDES: dict[str, dict] = {
    "fig1": {"n_slaves_grid": (1, 4), "frame_side": 128, "tile": 64, "n_readouts": 8},
    "fig2": {"n_repeats": 1, "shape": (8, 8), "gamma0_grid": (0.001, 0.01, 0.05)},
    "fig3": {"repeats": 1, "shape": (32, 32)},
    "fig4": {"n_repeats": 1, "shape": (8, 8), "gamma_ini_grid": (0.02, 0.1, 0.2)},
    "fig5": {"n_datasets": 3, "means": [64, 16384, 49152]},
    "fig6": {
        "n_repeats": 1,
        "shape": (6, 6),
        "gamma0_grid": (0.002, 0.02, 0.08),
        "sigmas": (0.0, 250.0),
    },
    "fig7": {"n_repeats": 1, "rows": 32, "cols": 32, "gamma0_grid": (0.005, 0.025, 0.05)},
    "fig8": {"rows": 32, "cols": 32, "n_repeats": 2},
    "fig9": {
        "n_repeats": 1,
        "rows": 24,
        "cols": 24,
        "gamma_ini_grid": (0.05, 0.2, 0.3),
    },
    "ablate-layout": {
        "n_repeats": 1,
        "shape": (8, 8),
        "gamma_ini_grid": (0.05, 0.15),
        "burst_rate_grid": (5e-5,),
        "lambdas": (60.0, 90.0),
    },
    "ablate-locality": {
        "n_repeats": 1,
        "side": 16,
        "n_bands": 6,
        "gamma0_grid": (0.01, 0.05),
        "lambdas": (60.0, 100.0),
    },
    "ablate-storage": {"n_repeats": 1, "rows": 24, "cols": 24, "gamma0_grid": (0.01, 0.05)},
    "ablate-windows": {"n_repeats": 1, "shape": (8, 8), "gamma0_grid": (0.005, 0.025)},
    "compression": {"n_repeats": 1, "side": 24, "gamma0_grid": (0.0, 0.01, 0.05)},
    "motivation": {"n_repeats": 1, "side": 8, "gamma0_grid": (0.005, 0.025)},
}

#: Experiments whose ``run`` accepts a ``strategies`` keyword (the
#: figures ``--strategy`` adds selective arms to).
_STRATEGY_EXPERIMENTS = frozenset({"fig2", "fig4"})


def probe_writable(directory: Path, flag: str) -> str | None:
    """Check that *directory*, given on the command line as *flag*, is
    writable.

    Creates the directory (with parents) if needed and verifies a file
    can be opened for writing inside it.  Returns a one-line problem
    description naming *flag*, or ``None`` when the directory is usable
    — the CLI turns the former into a clean exit instead of a traceback
    from deep inside a store or checkpoint write.
    """
    probe = directory / ".write-probe"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with probe.open("w"):
            pass
        probe.unlink()
    except OSError as exc:
        return f"{flag} {directory} is not writable: {exc}"
    return None


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "stream":
        from repro.stream.cli import main as stream_main

        return stream_main(argv[1:])
    if argv and argv[0] == "cache":
        from repro.cache.cli import main as cache_main

        return cache_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "kernels":
        from repro.native.cli import main as kernels_main

        return kernels_main(argv[1:])
    if argv and argv[0] == "report":
        from repro.dag.cli import report_main

        return report_main(argv[1:])
    if argv and argv[0] == "dag":
        from repro.dag.cli import dag_main

        return dag_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Pre-Processing Input Data to "
        "Augment Fault Tolerance in Space Applications' (DSN 2003).",
        epilog="A per-experiment run keeps no state between invocations. "
        "To resume an interrupted batch run, use the report graph: "
        "'repro report --only <id> --resume'.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'repro list'), 'list', 'all', "
        "'report' (resumable DAG report run; 'repro report --help'), "
        "'dag' (task-graph inspection; 'repro dag --help'), "
        "'stream' (streaming pipeline; 'repro stream --help'), "
        "'serve' (streaming service; 'repro serve --help'), "
        "'cache' (artifact cache maintenance; 'repro cache --help'), "
        "or 'kernels' (kernel-tier diagnostics; 'repro kernels --help')",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced grids for a fast run"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also dump results as JSON to PATH"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for trial loops (default 1 = serial; "
        "results are bit-identical at any N)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=0,
        metavar="N",
        help="worker threads for trial loops instead of processes "
        "(they overlap only inside NumPy calls and the C correlated "
        "scan; mutually exclusive with --jobs)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default=None,
        help="execution backend (default: inferred from --jobs/--threads; "
        "results are bit-identical for every choice)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-shard telemetry (timing, trials/sec) to stderr",
    )
    parser.add_argument(
        "--strategy",
        action="append",
        choices=[s for s in STRATEGY_CHOICES if s != "fixed"],
        default=None,
        metavar="NAME",
        help="append a selective Algo_NGST arm to experiments "
        "that support strategy arms (fig2, fig4); repeatable",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist the artifact cache's disk tier here, so pristine "
        "datasets and fault realizations survive across invocations "
        "(default: in-memory cache only; see 'repro cache')",
    )
    args = parser.parse_args(argv)

    try:
        backend = resolve_backend(args.backend, jobs=args.jobs, threads=args.threads)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.cache_dir is not None:
        problem = probe_writable(Path(args.cache_dir), "--cache-dir")
        if problem:
            print(problem, file=sys.stderr)
            return 2

    if args.experiment == "list":
        for experiment_id in sorted(REGISTRY):
            print(experiment_id)
        return 0

    if args.experiment == "claims":
        from repro.experiments.claims import render_verdicts, verify_claims
        from repro.experiments.report import load_results_json

        if not args.json:
            print("claims requires --json RESULTS.json", file=sys.stderr)
            return 2
        verdicts = verify_claims(load_results_json(args.json))
        print(render_verdicts(verdicts))
        return 0 if all(v.passed for v in verdicts) else 1

    experiment_ids = sorted(REGISTRY) if args.experiment == "all" else [args.experiment]
    if any(e not in REGISTRY for e in experiment_ids):
        bad = [e for e in experiment_ids if e not in REGISTRY]
        print(f"unknown experiment(s): {bad}; try 'repro list'", file=sys.stderr)
        return 2

    if args.strategy and args.experiment != "all":
        unsupported = [
            e for e in experiment_ids if e not in _STRATEGY_EXPERIMENTS
        ]
        if unsupported:
            print(
                f"--strategy applies to {sorted(_STRATEGY_EXPERIMENTS)}, "
                f"not {unsupported}",
                file=sys.stderr,
            )
            return 2

    collected = []
    for experiment_id in experiment_ids:
        kwargs = _QUICK_OVERRIDES.get(experiment_id, {}) if args.quick else {}
        if args.strategy and experiment_id in _STRATEGY_EXPERIMENTS:
            kwargs = {**kwargs, "strategies": tuple(dict.fromkeys(args.strategy))}
        runtime = _build_runtime(args, backend)
        try:
            results = run_experiment(experiment_id, runtime=runtime, **kwargs)
        except ReproError as exc:
            print(f"{experiment_id} failed: {exc}", file=sys.stderr)
            return 2
        for result in results:
            print(result.to_table())
            print()
            collected.append(result.to_dict())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(collected, fh, indent=2)
        print(f"wrote {len(collected)} result panel(s) to {args.json}")
    return 0


def _build_runtime(args: argparse.Namespace, backend) -> TrialRuntime:
    """One runtime per experiment, so each numbers its telemetry labels
    from ``run-0000``.  The *backend* is shared across experiments."""
    telemetry = None
    if args.progress:
        telemetry = Telemetry()
        telemetry.subscribe(ProgressPrinter())
    cache = ArtifactCache(directory=args.cache_dir)
    return TrialRuntime(backend=backend, telemetry=telemetry, cache=cache)


if __name__ == "__main__":
    sys.exit(main())
