"""The ``repro report`` and ``repro dag`` subcommands.

``repro report`` materializes the paper — all 15 experiments, or a
``--only`` subset — as **one DAG run**:

    repro report [--quick] [--only fig2,fig4] [--jobs N]
                 [--strategy selective] [--resume] [--plan] [--progress]
                 [--cache-dir DIR] [--out REPORT.md] [--json PANELS.json]
    repro report --from-json PANELS.json --out REPORT.md   # render only

``--resume`` recovers completed nodes from the artifact store (state
is purely the filesystem — kill the run anywhere, run again with
``--resume``, get byte-identical output); ``--plan`` prints the graph
and its cache temperature without executing anything; ``--from-json``
renders an existing panels dump.  ``repro <id>`` is the same run
restricted to one experiment (:func:`run_report_graph`).

``repro dag show`` inspects any campaign graph without running it:

    repro dag show [report|EXPERIMENT] [--quick] [--only IDS]
                   [--dot] [--cache-dir DIR]

``--dot`` emits Graphviz (completed nodes double-bordered when the
cache already holds their artifacts).  See docs/ORCHESTRATION.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.cache.store import ArtifactCache
from repro.config import STRATEGY_CHOICES
from repro.dag.graph import TaskGraph
from repro.dag.report import FINE_GRAINED, PANELS_NODE, build_report_graph
from repro.dag.scheduler import DagScheduler, DagSurvey
from repro.exceptions import ReproError
from repro.runtime import Executor, ProgressPrinter, Telemetry, resolve_backend

#: Default on-disk artifact store, shared with ``repro cache`` and the
#: experiment commands' ``--cache-dir``.
DEFAULT_CACHE_DIR = ".repro-cache"


def _parse_only(value: str | None) -> list[str] | None:
    if value is None:
        return None
    ids = [entry.strip() for entry in value.split(",") if entry.strip()]
    return ids or None


def _survey_cache(cache_dir: str) -> ArtifactCache:
    """A read-only-ish cache for surveys: disk tier only, no LRU churn."""
    directory = Path(cache_dir)
    if directory.is_dir():
        return ArtifactCache(max_memory_bytes=0, directory=directory)
    return ArtifactCache(max_memory_bytes=0)


def format_plan(survey: DagSurvey, cache_dir: str | None = None) -> str:
    """The dry-run rendering of a survey: totals, kinds, waves."""
    graph = survey.graph
    lines = [
        f"DAG {graph.name!r}: {survey.n_nodes} node(s), "
        f"{survey.n_done} done, {survey.n_pending} pending "
        f"(cache temperature {survey.temperature:.0%}"
        + (f", store: {cache_dir})" if cache_dir else ")")
    ]
    by_kind = survey.by_kind()
    if by_kind:
        width = max(len(kind) for kind in by_kind)
        lines.append(f"  {'kind':<{width}}  done  pending")
        for kind, (done, pending) in by_kind.items():
            lines.append(f"  {kind:<{width}}  {done:>4}  {pending:>7}")
    for index, wave in enumerate(survey.waves()):
        kinds: dict[str, int] = {}
        for name in wave:
            kind = graph.node(name).kind
            kinds[kind] = kinds.get(kind, 0) + 1
        summary = ", ".join(f"{count} {kind}" for kind, count in kinds.items())
        lines.append(f"  wave {index}: {len(wave)} node(s) ready ({summary})")
    if not survey.pending():
        lines.append("  nothing to execute: a run would replay from the store")
    return "\n".join(lines)


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every report run takes, ``repro <id>`` included."""
    parser.add_argument(
        "--quick", action="store_true", help="reduced grids for a fast run"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also dump the panels as JSON to PATH"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for graph nodes (default 1 = serial; "
        "results are bit-identical at any N)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-node telemetry to stderr",
    )
    parser.add_argument(
        "--strategy",
        action="append",
        choices=[s for s in STRATEGY_CHOICES if s != "fixed"],
        default=None,
        metavar="NAME",
        help=f"append a selective Algo_NGST arm to {', '.join(FINE_GRAINED)}; "
        "repeatable",
    )


def strategies(args: argparse.Namespace) -> tuple[str, ...]:
    """The ``--strategy`` values, deduplicated in order."""
    return tuple(dict.fromkeys(args.strategy or ()))


def strategy_problem(args: argparse.Namespace, ids: Sequence[str]) -> str | None:
    """The one-line refusal when ``--strategy`` reaches no figure taking it."""
    if args.strategy and not any(eid in FINE_GRAINED for eid in ids):
        return f"--strategy applies to {sorted(FINE_GRAINED)}, not {list(ids)}"
    return None


def run_report_graph(
    graph: TaskGraph,
    args: argparse.Namespace,
    backend: Executor,
    cache_dir: str | None,
    resume: bool = False,
    label: str = "report",
) -> tuple[int, list]:
    """Run *graph* to its panels node, print every table, honour ``--json``.

    *cache_dir* None keeps the artifact store in memory.  Returns the
    exit code and the panels as ExperimentResults (empty on failure).
    """
    from repro.cli import probe_output, probe_writable

    problem = probe_output(args.json, "--json") if args.json else None
    if problem is None and cache_dir is not None:
        problem = probe_writable(Path(cache_dir), "--cache-dir")
    if problem:
        print(problem, file=sys.stderr)
        return 2, []
    telemetry = None
    if args.progress:
        telemetry = Telemetry()
        telemetry.subscribe(ProgressPrinter())
    scheduler = DagScheduler(
        cache=ArtifactCache(directory=cache_dir),
        backend=backend,
        telemetry=telemetry,
    )
    try:
        outputs = scheduler.run(graph, targets=(PANELS_NODE,), recover=resume)
    except ReproError as exc:
        print(f"{label} failed: {exc}", file=sys.stderr)
        return 2, []

    from repro.dag.build import json_payload
    from repro.experiments.common import ExperimentResult

    panels = json_payload(outputs[PANELS_NODE])
    results = [ExperimentResult.from_dict(panel) for panel in panels]
    for result in results:
        print(result.to_table())
        print()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(panels, fh, indent=2)
        print(f"wrote {len(panels)} result panel(s) to {args.json}")
    return 0, results


def report_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro report``; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Reproduce the paper's experiments as one resumable "
        "DAG run and render the result tables.",
    )
    add_run_flags(parser)
    parser.add_argument(
        "--only",
        metavar="IDS",
        help="comma-separated experiment ids (default: every experiment)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="recover nodes whose output artifacts already verify in the "
        "store instead of re-running them (state is purely the "
        "filesystem: kill anywhere, rerun with --resume, get "
        "byte-identical output)",
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help="print the graph and cache temperature, execute nothing",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help="artifact store directory (default: %(default)s)",
    )
    parser.add_argument(
        "--out", metavar="PATH", help="write the Markdown report to PATH"
    )
    parser.add_argument(
        "--from-json",
        dest="from_json",
        metavar="PATH",
        help="render an existing panels dump (a 'repro report --json' or "
        "'repro <id> --json' file) to --out without running anything",
    )
    parser.add_argument(
        "--title",
        default="Regenerated results",
        help="report title for --out (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    try:
        backend = resolve_backend(args.jobs)
    except ReproError as exc:
        print(f"report failed: {exc}", file=sys.stderr)
        return 2

    if args.out:
        from repro.cli import probe_output

        problem = probe_output(args.out, "--out")
        if problem:
            print(problem, file=sys.stderr)
            return 2

    if args.from_json:
        from repro.experiments.report import write_report

        if not args.out:
            print(
                "report --from-json requires --out REPORT.md", file=sys.stderr
            )
            return 2
        try:
            count = write_report(args.from_json, args.out, title=args.title)
        except (OSError, ReproError) as exc:
            print(f"report failed: {exc}", file=sys.stderr)
            return 2
        print(f"rendered {count} panel(s) to {args.out}")
        return 0

    only = _parse_only(args.only)
    if only is not None:
        problem = strategy_problem(args, only)
        if problem:
            print(problem, file=sys.stderr)
            return 2
    try:
        graph = build_report_graph(
            only, quick=args.quick, strategies=strategies(args)
        )
    except ReproError as exc:
        print(f"report failed: {exc}", file=sys.stderr)
        return 2

    if args.plan:
        scheduler = DagScheduler(cache=_survey_cache(args.cache_dir))
        survey = scheduler.survey(graph, targets=(PANELS_NODE,))
        print(format_plan(survey, args.cache_dir))
        return 0

    code, results = run_report_graph(
        graph, args, backend, args.cache_dir, resume=args.resume
    )
    if code == 0 and args.out:
        from repro.experiments.report import results_to_markdown

        with open(args.out, "w") as fh:
            fh.write(results_to_markdown(results, title=args.title))
            fh.write("\n")
        print(f"rendered {len(results)} panel(s) to {args.out}")
    return code


def dag_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro dag``; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro dag",
        description="Inspect campaign task graphs without running them.",
    )
    parser.add_argument("action", choices=("show",))
    parser.add_argument(
        "target",
        nargs="?",
        default="report",
        help="'report' (the full-paper graph) or one experiment id "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="build the graph with the --quick parameter overrides",
    )
    parser.add_argument(
        "--only",
        metavar="IDS",
        help="('report' target only) comma-separated experiment ids",
    )
    parser.add_argument(
        "--dot",
        action="store_true",
        help="emit Graphviz DOT on stdout instead of a text summary",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help="artifact store to survey for completed nodes "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    if args.target == "report":
        only = _parse_only(args.only)
    elif args.only:
        print("--only applies to the 'report' target", file=sys.stderr)
        return 2
    else:
        only = [args.target]
    try:
        graph = build_report_graph(only, quick=args.quick)
        scheduler = DagScheduler(cache=_survey_cache(args.cache_dir))
        survey = scheduler.survey(graph, targets=(PANELS_NODE,))
    except ReproError as exc:
        print(f"dag show failed: {exc}", file=sys.stderr)
        return 2
    if args.dot:
        print(graph.to_dot(done=survey.done), end="")
        return 0
    print(format_plan(survey, args.cache_dir))
    return 0
