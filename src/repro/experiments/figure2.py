"""Figure 2 — Ψ vs Γ₀ at varying sensitivities, Algo_NGST vs median
smoothing, under the uncorrelated fault model.

Paper shape: preprocessing cuts the average relative error by 1–3
orders of magnitude for Γ₀ in the practical range; pushing Λ beyond the
per-Γ₀ optimum *degrades* accuracy again (false alarms), so the curves
for different Λ cross.

The whole figure is one task graph (:func:`graph`): per trial, the
pristine walk and each Γ₀ point's fault realization are nodes whose
output artifacts every arm's score node shares, aggregates reduce each
grid point, and a figure node assembles the final table.  Values are
bit-identical to the historical per-arm loops, and a killed run resumes
from the artifact store (see :mod:`repro.dag`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.median import median_smooth_temporal
from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.core.strategies import strategy_arm_config
from repro.dag import TaskGraph, add_arm_sweep
from repro.experiments.common import (
    DEFAULT_GAMMA0_GRID,
    ExperimentResult,
    add_result_table,
    run_figure_graph,
    walk_dataset,
)
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.relative_error import psi
from repro.runtime import Arm, TrialRuntime

#: The table node every fig2 graph ends in.
TABLE_NODE = "fig2/table"


def _arms(
    lambdas: Sequence[float],
    upsilon: int,
    strategies: Sequence[str] = (),
    strategy_lambda: float = 50.0,
) -> list[Arm]:
    arms = [Arm("no-preprocessing", lambda corrupted, pristine: psi(corrupted, pristine))]
    for lam in lambdas:
        algo = AlgoNGST(NGSTConfig(upsilon=upsilon, sensitivity=lam))
        arms.append(
            Arm(
                f"Algo_NGST L={int(lam)}",
                lambda corrupted, pristine, algo=algo: psi(
                    algo(corrupted).corrected, pristine
                ),
            )
        )
    for strategy in strategies:
        algo = AlgoNGST(
            strategy_arm_config(
                strategy, upsilon=upsilon, sensitivity=strategy_lambda
            )
        )
        arms.append(
            Arm(
                f"Algo_NGST {strategy} L={int(strategy_lambda)}",
                lambda corrupted, pristine, algo=algo: psi(
                    algo(corrupted).corrected, pristine
                ),
            )
        )
    arms.append(
        Arm(
            "median-w3",
            lambda corrupted, pristine: psi(
                median_smooth_temporal(corrupted), pristine
            ),
        )
    )
    return arms


def graph(
    gamma0_grid: Sequence[float] = DEFAULT_GAMMA0_GRID,
    lambdas: Sequence[float] = (20.0, 50.0, 80.0, 95.0),
    upsilon: int = 4,
    sigma: float = 25.0,
    n_variants: int = 64,
    shape: tuple[int, ...] = (16, 16),
    n_repeats: int = 3,
    seed: int = 2003,
    strategies: Sequence[str] = (),
    strategy_lambda: float = 50.0,
) -> TaskGraph:
    """The Figure 2 campaign as a task graph ending in :data:`TABLE_NODE`.

    One arm sweep per Γ₀ point; the pristine-walk dataset nodes are
    shared across points (the walk does not depend on Γ₀), turning the
    artifact reuse the cache used to discover at runtime into explicit
    graph structure.  *strategies* appends one adaptive/selective
    Algo_NGST arm per named strategy, all operating at Λ =
    *strategy_lambda* (see
    :func:`repro.core.strategies.strategy_arm_config`).
    """
    result_graph = TaskGraph("fig2")
    dataset = walk_dataset(
        NGSTDatasetConfig(n_variants=n_variants, sigma=sigma), shape
    )
    arms = _arms(lambdas, upsilon, strategies, strategy_lambda)
    aggregates = [
        add_arm_sweep(
            result_graph,
            f"fig2/g{index:02d}",
            arms,
            dataset,
            UncorrelatedFaultModel(gamma0),
            n_repeats,
            seed,
        )
        for index, gamma0 in enumerate(gamma0_grid)
    ]
    add_result_table(
        result_graph,
        TABLE_NODE,
        aggregates,
        experiment_id="fig2",
        title="Psi vs Gamma0, Algo_NGST at several sensitivities vs median",
        x_label="Gamma0",
        y_label="avg relative error Psi",
        x=list(gamma0_grid),
        notes=[
            f"sigma={sigma}, N={n_variants}, upsilon={upsilon}, "
            f"coords={shape}, {n_repeats} repeats"
        ],
    )
    return result_graph


def run(
    gamma0_grid: Sequence[float] = DEFAULT_GAMMA0_GRID,
    lambdas: Sequence[float] = (20.0, 50.0, 80.0, 95.0),
    upsilon: int = 4,
    sigma: float = 25.0,
    n_variants: int = 64,
    shape: tuple[int, ...] = (16, 16),
    n_repeats: int = 3,
    seed: int = 2003,
    strategies: Sequence[str] = (),
    strategy_lambda: float = 50.0,
    runtime: TrialRuntime | None = None,
) -> ExperimentResult:
    """Regenerate the Figure 2 curves by running :func:`graph`."""
    figure_graph = graph(
        gamma0_grid=gamma0_grid,
        lambdas=lambdas,
        upsilon=upsilon,
        sigma=sigma,
        n_variants=n_variants,
        shape=shape,
        n_repeats=n_repeats,
        seed=seed,
        strategies=strategies,
        strategy_lambda=strategy_lambda,
    )
    return run_figure_graph(figure_graph, TABLE_NODE, runtime)
