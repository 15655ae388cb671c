"""Command-line entry point: regenerate any of the paper's figures.

Usage::

    repro list
    repro fig2 [--quick] [--jobs N] [--progress] [--json OUT.json]
    repro report [--quick] [--resume] [--plan] [--out REPORT.md]
    repro report --only fig5 --resume     # resume one experiment
    repro dag show [report|fig2] [--dot]
    repro stream [--frames N] [--chunk-frames K] [--progress]
    repro serve [--port P] [--control-port C] [--checkpoint-dir DIR]
    repro fig2 --cache-dir .repro-cache   # persist artifacts across runs
    repro cache stats|clear [--cache-dir DIR]
    repro kernels [--json] [--require native]

``--quick`` shrinks repeats/grids so every experiment finishes in
seconds; default parameters match the EXPERIMENTS.md record.

Every batch run is one task graph (:mod:`repro.dag`).  ``repro
report`` runs all 15 experiments, or an ``--only`` subset, as one
resumable DAG run; ``repro <id>`` is the same run restricted to one
experiment, over an in-memory artifact store unless ``--cache-dir`` is
given.  ``--jobs N`` runs ready graph nodes across N worker processes;
results are bit-identical to a serial run.  ``--progress`` prints
per-node telemetry to stderr.  A per-experiment run keeps no state
between invocations; to make one resumable, run it as ``repro report
--only fig5 --resume``, which picks up an interrupted run from the
artifacts already in the store.  Both live in :mod:`repro.dag.cli`
(docs/ORCHESTRATION.md), as does ``repro dag show``, which inspects
the graph without running it.

``repro stream`` runs the bounded-memory streaming pipeline instead of
a batch experiment; its flags live in :mod:`repro.stream.cli` and its
semantics in docs/STREAMING.md.  ``repro serve`` starts the always-on
multi-tenant streaming service (:mod:`repro.serve.cli`, docs/SERVING.md).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.dag.cli import (
    add_run_flags,
    run_report_graph,
    strategies,
    strategy_problem,
)
from repro.dag.report import build_report_graph
from repro.exceptions import ReproError
from repro.experiments.registry import REGISTRY
from repro.runtime import resolve_backend

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


def probe_output(path: str, flag: str) -> str | None:
    """:func:`probe_writable` for the output file *path* given as *flag*,
    except that its directory must already exist (nothing is created)."""
    target = Path(path)
    if target.is_dir():
        return f"{flag} {path} is a directory"
    if not target.parent.is_dir():
        return f"{flag} {path}: no such directory {target.parent}"
    return probe_writable(target.parent, flag)


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
        epilog="'repro <id>' runs 'repro report --only <id>' and keeps no "
        "state between invocations. To resume an interrupted batch run, "
        "use the report graph: 'repro report --only <id> --resume'.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'repro list'), 'list', "
        "'report' (every experiment as one resumable DAG run; "
        "'repro report --help'), "
        "'dag' (task-graph inspection; 'repro dag --help'), "
        "'stream' (streaming pipeline; 'repro stream --help'), "
        "'serve' (streaming service; 'repro serve --help'), "
        "'cache' (artifact cache maintenance; 'repro cache --help'), "
        "or 'kernels' (kernel-tier diagnostics; 'repro kernels --help')",
    )
    add_run_flags(parser)
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist the run's artifacts here, so pristine datasets and "
        "fault realizations survive across invocations (default: "
        "in-memory store only; see 'repro cache')",
    )
    args = parser.parse_args(argv)

    try:
        backend = resolve_backend(args.jobs)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
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

    experiment_id = args.experiment
    if experiment_id not in REGISTRY:
        print(
            f"unknown experiment {experiment_id!r}; try 'repro list', or "
            "'repro report' for every experiment",
            file=sys.stderr,
        )
        return 2
    problem = strategy_problem(args, [experiment_id])
    if problem:
        print(problem, file=sys.stderr)
        return 2

    try:
        graph = build_report_graph(
            [experiment_id], quick=args.quick, strategies=strategies(args)
        )
    except ReproError as exc:
        print(f"{experiment_id} failed: {exc}", file=sys.stderr)
        return 2
    code, _ = run_report_graph(
        graph, args, backend, args.cache_dir, label=experiment_id
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
