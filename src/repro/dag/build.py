"""Graph builders: campaign sweeps as dataset→fault→score→aggregate DAGs.

These helpers turn the declarative sweep specs
(:class:`~repro.runtime.DatasetSpec` / :class:`~repro.runtime.FaultSpec`
/ :class:`~repro.runtime.Arm`) into :class:`~repro.dag.TaskNode`
subgraphs that replay the canonical trial protocol *exactly*:

* the dataset node builds from ``default_rng(trial_seed)`` and stores
  the post-generation RNG state under its :func:`pristine_key`;
* the fault node, stored under its :func:`realization_key`, restores
  that captured state before drawing the injector seed, keeping store
  hits and misses on identical streams;
* score nodes are pure arm evaluations; the aggregate node stacks
  per-trial values per arm, from which means come out bit-identical
  to running each arm as its own trial loop.

Trial seeds come from ``SeedSequence(seed).spawn(n_trials)`` — the
same spawn tree as :class:`~repro.runtime.TrialPlan` — so a graph run
is bit-identical to the trial-loop run it replaces.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

import numpy as np

from repro.cache.fingerprint import fingerprint
from repro.cache.store import CachedArtifact
from repro.dag.graph import TaskGraph
from repro.dag.node import TaskContext, TaskNode
from repro.exceptions import ConfigurationError
from repro.faults.injector import FaultInjector, derive_injector_seed
from repro.runtime.specs import Arm, DatasetSpec, FaultSpec


def pristine_key(dataset: DatasetSpec, seed: np.random.SeedSequence) -> str:
    """Content key of one trial's pristine dataset.

    Independent of the fault parameters, so every Γ of a grid shares
    the trial's dataset artifact.
    """
    return fingerprint("pristine", dataset.key_parts, seed)


def realization_key(
    dataset: DatasetSpec, fault: FaultSpec, seed: np.random.SeedSequence
) -> str:
    """Content key of one trial's corrupted fault realization."""
    return fingerprint("realization", dataset.key_parts, fault.key_parts, seed)


def _dataset_run(dataset: DatasetSpec):
    def run(ctx: TaskContext) -> CachedArtifact:
        rng = ctx.rng
        pristine = dataset.build(rng)
        return CachedArtifact.build(
            {"pristine": pristine}, {"rng_state": rng.bit_generator.state}
        )

    return run


def _fault_run(fault: FaultSpec, dataset_node: str):
    def run(ctx: TaskContext) -> CachedArtifact:
        upstream = ctx.input(dataset_node)
        rng = ctx.rng
        rng.bit_generator.state = upstream.meta["rng_state"]
        injector = FaultInjector(fault.model, seed=derive_injector_seed(rng))
        corrupted, _ = injector.inject(np.asarray(upstream.arrays["pristine"]))
        return CachedArtifact.build({"corrupted": corrupted})

    return run


def add_pipeline_nodes(
    graph: TaskGraph,
    dataset: DatasetSpec,
    fault: FaultSpec | None,
    trial_seed: np.random.SeedSequence,
) -> tuple[str, str]:
    """Add one trial's dataset (and fault) nodes; idempotent.

    Returns ``(dataset_node, corrupted_node)`` — the same name twice
    when *fault* is None (arms then score the pristine array).  Node
    names are prefixes of the artifact content keys, so two figures
    sharing a (config, seed) trial share one node via
    :meth:`TaskGraph.ensure`.
    """
    dataset_key = pristine_key(dataset, trial_seed)
    dataset_node = f"dataset/{dataset_key[:12]}"
    graph.ensure(
        TaskNode(
            name=dataset_node,
            kind="dataset",
            run=_dataset_run(dataset),
            key_parts=("pristine", dataset.key_parts),
            seed=trial_seed,
            explicit_key=dataset_key,
        )
    )
    if fault is None:
        return dataset_node, dataset_node
    fault_key = realization_key(dataset, fault, trial_seed)
    fault_node = f"fault/{fault_key[:12]}"
    graph.ensure(
        TaskNode(
            name=fault_node,
            kind="fault",
            run=_fault_run(fault, dataset_node),
            inputs=(dataset_node,),
            key_parts=("realization", fault.key_parts),
            seed=trial_seed,
            explicit_key=fault_key,
        )
    )
    return dataset_node, fault_node


def _score_run(arm: Arm, dataset_node: str, corrupted_node: str):
    def run(ctx: TaskContext) -> CachedArtifact:
        pristine = ctx.array(dataset_node, "pristine")
        if corrupted_node == dataset_node:
            corrupted = pristine
        else:
            corrupted = ctx.array(corrupted_node, "corrupted")
        value = arm.evaluate(corrupted, pristine)
        return CachedArtifact.build(
            {"value": np.asarray(value, dtype=np.float64)}
        )

    return run


def _aggregate_run(arm_names: tuple[str, ...], score_nodes: dict):
    def run(ctx: TaskContext) -> CachedArtifact:
        arrays = {}
        n_trials = len(score_nodes[arm_names[0]])
        for index, arm_name in enumerate(arm_names):
            arrays[f"values_{index}"] = np.stack(
                [
                    ctx.array(node_name, "value")
                    for node_name in score_nodes[arm_name]
                ]
            )
        return CachedArtifact.build(
            arrays, {"arms": list(arm_names), "n_trials": n_trials}
        )

    return run


def add_arm_sweep(
    graph: TaskGraph,
    prefix: str,
    arms: Sequence[Arm],
    dataset: DatasetSpec,
    fault: FaultSpec | object | None,
    n_trials: int,
    seed: int,
) -> str:
    """Add a full averaged-arm sweep subgraph; returns its aggregate node.

    One dataset + fault node pair per trial, shared across arms, one
    pure score node per (trial, arm), and one aggregate node stacking
    each arm's per-trial values.  *fault* may be a :class:`FaultSpec`, a bare
    fault model exposing ``cache_key_parts()``, or None for pristine
    evaluation.
    """
    if n_trials < 1:
        raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
    arms = tuple(arms)
    names = [arm.name for arm in arms]
    if not arms or len(set(names)) != len(names):
        raise ConfigurationError(
            f"arm sweep needs uniquely named arms, got {names}"
        )
    if fault is not None and not isinstance(fault, FaultSpec):
        fault = FaultSpec.of(fault)
    trial_seeds = np.random.SeedSequence(seed).spawn(n_trials)
    score_nodes: dict[str, list[str]] = {name: [] for name in names}
    for trial, trial_seed in enumerate(trial_seeds):
        dataset_node, corrupted_node = add_pipeline_nodes(
            graph, dataset, fault, trial_seed
        )
        inputs = (
            (dataset_node,)
            if corrupted_node == dataset_node
            else (dataset_node, corrupted_node)
        )
        for arm in arms:
            score_node = f"{prefix}/t{trial:03d}/{arm.name}"
            graph.add(
                TaskNode(
                    name=score_node,
                    kind="score",
                    run=_score_run(arm, dataset_node, corrupted_node),
                    inputs=inputs,
                    key_parts=("score", arm.name),
                )
            )
            score_nodes[arm.name].append(score_node)
    aggregate_node = f"{prefix}/aggregate"
    graph.add(
        TaskNode(
            name=aggregate_node,
            kind="aggregate",
            run=_aggregate_run(tuple(names), score_nodes),
            inputs=tuple(
                node for arm_name in names for node in score_nodes[arm_name]
            ),
            key_parts=("aggregate", tuple(names), n_trials, seed),
        )
    )
    return aggregate_node


def aggregate_values(artifact: CachedArtifact) -> dict[str, np.ndarray]:
    """Per-arm stacked trial values from an aggregate node's artifact."""
    return {
        arm_name: artifact.arrays[f"values_{index}"]
        for index, arm_name in enumerate(artifact.meta["arms"])
    }


def aggregate_means(artifact: CachedArtifact) -> dict[str, float]:
    """Per-arm mean values — the classic ``averaged_arms`` result shape."""
    return {
        arm_name: float(np.mean(values))
        for arm_name, values in aggregate_values(artifact).items()
    }


def json_artifact(payload, meta: dict | None = None) -> CachedArtifact:
    """Wrap a JSON-able *payload* as a content-verifiable artifact.

    Figure tables and experiment panels store their results this way:
    the canonical UTF-8 JSON bytes live in a uint8 array, so the disk
    tier's payload hash covers the table content itself and a resumed
    report is byte-comparable to a fresh one.
    """
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return CachedArtifact.build(
        {"json": np.frombuffer(encoded, dtype=np.uint8)}, meta
    )


def json_payload(artifact: CachedArtifact):
    """The JSON payload stored by :func:`json_artifact`."""
    return json.loads(bytes(artifact.arrays["json"]).decode("utf-8"))
