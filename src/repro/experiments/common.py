"""Shared experiment machinery: result containers, averaging sweeps,
DAG-scheduled multi-arm sweeps, optimal-sensitivity search, and ASCII
rendering."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.cache import ArtifactCache
from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.dag import (
    DagScheduler,
    TaskGraph,
    TaskNode,
    add_arm_sweep,
    aggregate_means,
    json_artifact,
)
from repro.data.ngst import generate_walk
from repro.exceptions import ConfigurationError
from repro.metrics.relative_error import psi
from repro.runtime import Arm, DatasetSpec, TrialRuntime


@dataclass
class Series:
    """One labelled curve: y values over the experiment's x grid."""

    label: str
    x: list[float]
    y: list[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ConfigurationError(
                f"series {self.label!r}: {len(self.x)} x vs {len(self.y)} y values"
            )


@dataclass
class ExperimentResult:
    """The data behind one regenerated figure/table."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, label: str, x: Sequence[float], y: Sequence[float]) -> None:
        self.series.append(Series(label, list(x), list(y)))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_table(self) -> str:
        """Render every series against the x grid as an ASCII table."""
        if not self.series:
            return f"[{self.experiment_id}] (no data)"
        xs = self.series[0].x
        header = [self.x_label] + [s.label for s in self.series]
        widths = [max(14, len(h) + 2) for h in header]
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            "".join(h.rjust(w) for h, w in zip(header, widths)),
        ]
        for i, x in enumerate(xs):
            row = [_fmt(x)]
            for s in self.series:
                row.append(_fmt(s.y[i]) if i < len(s.y) else "-")
            lines.append("".join(v.rjust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "series": [
                {"label": s.label, "x": s.x, "y": s.y} for s in self.series
            ],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentResult":
        """Rebuild a result from its :meth:`to_dict` form.

        The inverse used by the DAG report path (panels travel between
        nodes as canonical JSON artifacts) and by the report renderer's
        ``--from-json`` mode.
        """
        result = cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            x_label=payload["x_label"],
            y_label=payload["y_label"],
            notes=list(payload.get("notes", [])),
        )
        for entry in payload.get("series", []):
            result.add(entry["label"], entry["x"], entry["y"])
        return result

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 1e-3:
        return f"{value:.3e}"
    return f"{value:.5f}"


def averaged(
    runner: Callable[[np.random.Generator], float],
    n_repeats: int,
    seed: int,
    runtime: TrialRuntime | None = None,
) -> float:
    """Mean of *runner* over ``n_repeats`` independently seeded runs.

    Delegates the repeat loop to :class:`repro.runtime.TrialRuntime`,
    so passing a runtime with a process-pool backend parallelises the
    repeats (and one with a checkpoint store makes them resumable)
    without changing the result: per-repeat seeds are the
    ``SeedSequence.spawn`` children of *seed* on every backend.
    """
    if n_repeats < 1:
        raise ConfigurationError(f"n_repeats must be >= 1, got {n_repeats}")
    runtime = runtime if runtime is not None else TrialRuntime()
    return float(np.mean(runtime.run(runner, n_repeats, seed)))


def experiment_runtime(runtime: TrialRuntime | None = None) -> TrialRuntime:
    """The runtime an experiment sweep should use.

    Passes a caller-provided runtime through untouched; otherwise
    builds a serial runtime with a fresh in-memory
    :class:`~repro.cache.ArtifactCache`, so every grid point of the
    sweep shares pristine datasets (identical across fault-parameter
    points of the same seed) instead of regenerating them.
    """
    if runtime is not None:
        return runtime
    return TrialRuntime(cache=ArtifactCache())


def walk_dataset(
    config: NGSTDatasetConfig, shape: tuple[int, ...]
) -> DatasetSpec:
    """Cacheable :class:`DatasetSpec` for the NGST random-walk generator."""
    return DatasetSpec(
        build=lambda rng: generate_walk(config, rng, shape),
        key_parts=("ngst_walk", config, tuple(shape)),
    )


def averaged_arms(
    arms: Sequence[Arm],
    dataset: DatasetSpec,
    fault,
    n_repeats: int,
    seed: int,
    runtime: TrialRuntime | None = None,
) -> dict[str, float]:
    """Mean of every arm over ``n_repeats`` shared-artifact trials.

    The DAG counterpart of calling :func:`averaged` once per arm: the
    sweep becomes a dataset → fault → per-arm score → aggregate task
    graph (:func:`repro.dag.add_arm_sweep`) scheduled on the runtime's
    backend, so generation and injection run **once per trial** and
    every arm evaluates the same read-only arrays.  Values — and
    therefore the means — are bit-identical to the per-arm
    :func:`averaged` calls, because the dataset/fault nodes replay the
    canonical trial protocol exactly (same ``SeedSequence`` children,
    same captured-RNG-state handoff).

    Args:
        arms: the arms to evaluate; names key the returned dict.
        dataset: pristine-dataset spec (see :func:`walk_dataset`).
        fault: a :class:`~repro.runtime.FaultSpec`, a fault model
            exposing ``cache_key_parts()``, or None to run arms on
            pristine data.
        n_repeats: trials per arm (>= 1).
        seed: root seed shared by every arm.
        runtime: execution runtime; defaults to
            :func:`experiment_runtime`'s cached serial runtime.
    """
    if n_repeats < 1:
        raise ConfigurationError(f"n_repeats must be >= 1, got {n_repeats}")
    runtime = experiment_runtime(runtime)
    graph = TaskGraph("arm-sweep")
    aggregate = add_arm_sweep(
        graph, "sweep", arms, dataset, fault, n_repeats, seed
    )
    scheduler = DagScheduler.for_runtime(runtime)
    outputs = scheduler.run(graph, targets=(aggregate,))
    return aggregate_means(outputs[aggregate])


def add_result_table(
    graph: TaskGraph,
    name: str,
    aggregates: Sequence[str],
    *,
    experiment_id: str,
    title: str,
    x_label: str,
    y_label: str,
    x: Sequence[float],
    notes: Sequence[str] = (),
) -> str:
    """Add the figure-table node closing an experiment's sweep subgraph.

    *aggregates* are arm-sweep aggregate nodes, one per x-grid point in
    order.  The node assembles the classic :class:`ExperimentResult`
    (one series per arm, arm order preserved) and stores it as a
    canonical-JSON panel artifact, so the rendered table is itself
    content-verified and byte-comparable across resumed runs.
    """
    aggregates = tuple(aggregates)
    x = [float(value) for value in x]
    notes = tuple(notes)
    if len(aggregates) != len(x):
        raise ConfigurationError(
            f"table {name!r}: {len(aggregates)} aggregate node(s) for "
            f"{len(x)} x value(s)"
        )

    def run(ctx):
        labels = list(ctx.input(aggregates[0]).meta["arms"])
        curves: dict[str, list[float]] = {label: [] for label in labels}
        for aggregate in aggregates:
            means = aggregate_means(ctx.input(aggregate))
            for label in labels:
                curves[label].append(means[label])
        result = ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            x_label=x_label,
            y_label=y_label,
        )
        for label in labels:
            result.add(label, x, curves[label])
        for note_text in notes:
            result.note(note_text)
        return json_artifact([result.to_dict()])

    graph.add(
        TaskNode(
            name=name,
            kind="figure",
            run=run,
            inputs=aggregates,
            key_parts=(
                "figure-table",
                experiment_id,
                title,
                x_label,
                y_label,
                tuple(x),
                notes,
            ),
        )
    )
    return name


def run_figure_graph(
    graph: TaskGraph,
    table: str,
    runtime: TrialRuntime | None = None,
) -> ExperimentResult:
    """Execute a figure graph and decode its table node's panel."""
    from repro.dag.build import json_payload

    runtime = experiment_runtime(runtime)
    scheduler = DagScheduler.for_runtime(runtime)
    outputs = scheduler.run(graph, targets=(table,))
    (panel,) = json_payload(outputs[table])
    return ExperimentResult.from_dict(panel)


def best_sensitivity(
    corrupted: np.ndarray,
    pristine: np.ndarray,
    lambdas: Sequence[float],
    upsilon: int = 4,
) -> tuple[float, float]:
    """The Λ from *lambdas* minimising Ψ on this dataset, with its Ψ.

    Mirrors the paper's use of "experimentally optimized values of Υ and
    sensitivity Λ" — the designer tunes Λ to the environment.
    """
    if not lambdas:
        raise ConfigurationError("need at least one candidate sensitivity")
    best_lam, best_psi = None, None
    for lam in lambdas:
        algo = AlgoNGST(NGSTConfig(upsilon=upsilon, sensitivity=lam))
        value = psi(algo(corrupted).corrected, pristine)
        if best_psi is None or value < best_psi:
            best_lam, best_psi = lam, value
    return float(best_lam), float(best_psi)


#: Default Γ₀ grid for the uncorrelated-fault sweeps (log-spaced over
#: the paper's "range of practical interest", Γ₀ ≤ 10 %).
DEFAULT_GAMMA0_GRID = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1)

#: Default Λ candidates when an experiment optimises the sensitivity.
DEFAULT_LAMBDA_GRID = (10.0, 30.0, 50.0, 70.0, 80.0, 90.0, 100.0)
