"""The full paper as one task graph: every experiment, one DAG run.

:func:`build_report_graph` assembles all 15 registered experiments
into a single :class:`~repro.dag.TaskGraph`.  Figures with graph
builders (fig2, fig4) expand fine-grained — per-trial dataset/fault
nodes, per-arm score nodes — so a kill mid-figure resumes mid-figure;
the remaining experiments run as one coarse ``experiment`` node each
(their ``run()`` loops are already deterministic), which still gives
per-experiment recovery and cross-experiment parallelism under
``--jobs``.  A final ``report/panels``
node concatenates every panel, in registry order, into one canonical
JSON artifact — the content the ``repro report`` CLI renders to
Markdown.

Because every node's output lives in the artifact store under a
content key, a report run killed at any point restarts as a survey
plus the remaining frontier and produces byte-identical panels; see
docs/ORCHESTRATION.md.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.dag.build import json_artifact, json_payload
from repro.dag.graph import TaskGraph
from repro.dag.node import TaskNode
from repro.exceptions import ConfigurationError

#: The sink node every report graph ends in.
PANELS_NODE = "report/panels"

#: Experiments with fine-grained graph builders; everything else runs
#: as one coarse ``experiment`` node.  These are also the experiments
#: that take strategy arms.
FINE_GRAINED = ("fig2", "fig4")


def quick_overrides(experiment_id: str) -> dict:
    """The ``--quick`` parameter overrides for *experiment_id*."""
    from repro.cli import _QUICK_OVERRIDES

    return dict(_QUICK_OVERRIDES.get(experiment_id, {}))


def _experiment_run(experiment_id: str, overrides: dict):
    def run(ctx) -> object:
        from repro.experiments.registry import run_experiment

        results = run_experiment(experiment_id, **overrides)
        return json_artifact([result.to_dict() for result in results])

    return run


def _panels_run(terminals: tuple[str, ...]):
    def run(ctx) -> object:
        panels = []
        for terminal in terminals:
            panels.extend(json_payload(ctx.input(terminal)))
        return json_artifact(panels)

    return run


def _figure_subgraph(experiment_id: str, overrides: dict):
    if experiment_id == "fig2":
        from repro.experiments import figure2

        return figure2.graph(**overrides), figure2.TABLE_NODE
    from repro.experiments import figure4

    return figure4.graph(**overrides), figure4.TABLE_NODE


def build_report_graph(
    experiment_ids: Iterable[str] | None = None,
    quick: bool = False,
    strategies: Sequence[str] = (),
) -> TaskGraph:
    """Every requested experiment as one graph ending in :data:`PANELS_NODE`.

    Args:
        experiment_ids: which experiments to include, in the given
            order after deduplication; default is every registered
            experiment in sorted-id order.
        quick: apply the CLI's ``--quick`` parameter overrides; the
            overrides are folded into the experiment nodes' content
            keys, so quick and full artifacts never collide.
        strategies: Algo_NGST strategy arms appended to the
            fine-grained figures (fig2, fig4); see
            :func:`repro.core.strategies.strategy_arm_config`.
    """
    from repro.experiments.registry import REGISTRY

    if experiment_ids is None:
        ids = sorted(REGISTRY)
    else:
        ids = list(dict.fromkeys(experiment_ids))
    unknown = [eid for eid in ids if eid not in REGISTRY]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment(s): {unknown}; choose from {sorted(REGISTRY)}"
        )
    if not ids:
        raise ConfigurationError("need at least one experiment id")
    graph = TaskGraph("report")
    terminals = []
    for experiment_id in ids:
        overrides = quick_overrides(experiment_id) if quick else {}
        if experiment_id in FINE_GRAINED:
            if strategies:
                overrides["strategies"] = tuple(strategies)
            subgraph, table = _figure_subgraph(experiment_id, overrides)
            graph.merge(subgraph)
            terminals.append(table)
        else:
            node = f"{experiment_id}/experiment"
            graph.add(
                TaskNode(
                    name=node,
                    kind="experiment",
                    run=_experiment_run(experiment_id, overrides),
                    key_parts=("experiment", experiment_id, overrides),
                )
            )
            terminals.append(node)
    graph.add(
        TaskNode(
            name=PANELS_NODE,
            kind="aggregate",
            run=_panels_run(tuple(terminals)),
            inputs=tuple(terminals),
            key_parts=("report-panels", tuple(ids)),
        )
    )
    return graph
