"""Shared experiment machinery: result containers, the seeded trial
loop, DAG-scheduled multi-arm sweeps, optimal-sensitivity search, and
ASCII rendering."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.dag import (
    DagScheduler,
    TaskGraph,
    TaskNode,
    aggregate_means,
    json_artifact,
)
from repro.data.ngst import generate_walk
from repro.exceptions import ConfigurationError
from repro.metrics.relative_error import psi
from repro.runtime import DatasetSpec


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


def _trial_value(value: object) -> float | list[float]:
    """Coerce one trial's value to a float, or a list of floats."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [float(v) for v in value]
    return float(value)  # type: ignore[arg-type]


def seeded_trials(
    trial: Callable[[np.random.Generator], object], n_trials: int, seed: int
) -> list:
    """Run *n_trials* independently seeded trials; values in trial order.

    Trial *i* draws from ``default_rng`` of the *i*-th
    ``SeedSequence(seed).spawn(n_trials)`` child, the same spawn tree
    the task-graph sweeps (:func:`repro.dag.add_arm_sweep`) use.  Each
    value is a float, or a list of floats for a multi-statistic trial.
    """
    if n_trials < 1:
        raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
    return [
        _trial_value(trial(np.random.default_rng(child)))
        for child in np.random.SeedSequence(seed).spawn(n_trials)
    ]


def averaged(
    runner: Callable[[np.random.Generator], float], n_repeats: int, seed: int
) -> float:
    """Mean of *runner* over ``n_repeats`` :func:`seeded_trials`."""
    return float(np.mean(seeded_trials(runner, n_repeats, seed)))


def walk_dataset(
    config: NGSTDatasetConfig, shape: tuple[int, ...]
) -> DatasetSpec:
    """Cacheable :class:`DatasetSpec` for the NGST random-walk generator."""
    return DatasetSpec(
        build=lambda rng: generate_walk(config, rng, shape),
        key_parts=("ngst_walk", config, tuple(shape)),
    )


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


def run_figure_graph(graph: TaskGraph, table: str) -> ExperimentResult:
    """Execute a figure graph serially over a fresh in-memory store and
    decode its table node's panel."""
    from repro.dag.build import json_payload

    outputs = DagScheduler().run(graph, targets=(table,))
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
    results = AlgoNGST(NGSTConfig(upsilon=upsilon)).sweep(corrupted, lambdas)
    for lam, result in zip(lambdas, results):
        value = psi(result.corrected, pristine)
        if best_psi is None or value < best_psi:
            best_lam, best_psi = lam, value
    return float(best_lam), float(best_psi)


#: Default Γ₀ grid for the uncorrelated-fault sweeps (log-spaced over
#: the paper's "range of practical interest", Γ₀ ≤ 10 %).
DEFAULT_GAMMA0_GRID = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1)

#: Default Λ candidates when an experiment optimises the sensitivity.
DEFAULT_LAMBDA_GRID = (10.0, 30.0, 50.0, 70.0, 80.0, 90.0, 100.0)
