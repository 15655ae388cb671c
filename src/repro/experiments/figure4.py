"""Figure 4 — NGST datasets under the correlated fault model (§2.2.3).

Paper shape: Algo_NGST "does much better in combating the correlated
failures in a bit-locality than the two smoothing algorithms, both of
which show quite similar performance".

The figure is one task graph (:func:`graph`): per trial, the walk and
each Γ_ini point's correlated fault realization are shared artifact
nodes scored by all four arms — no-preprocessing, Algo_NGST at the
per-dataset optimal Λ, and the two smoothing baselines — with
aggregates and a figure-table node on top.  Bit-identical to the
historical per-arm loops, resumable from the artifact store.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.majority import majority_vote_temporal
from repro.baselines.median import median_smooth_temporal
from repro.config import CorrelatedFaultConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.core.strategies import strategy_arm_config
from repro.dag import TaskGraph, add_arm_sweep
from repro.experiments.common import (
    DEFAULT_LAMBDA_GRID,
    ExperimentResult,
    add_result_table,
    best_sensitivity,
    run_figure_graph,
    walk_dataset,
)
from repro.faults.correlated import CorrelatedFaultModel
from repro.metrics.relative_error import psi
from repro.runtime import Arm

DEFAULT_GAMMA_INI_GRID = (0.005, 0.01, 0.025, 0.05, 0.1, 0.15, 0.2)

#: The table node every fig4 graph ends in.
TABLE_NODE = "fig4/table"


def _arms(
    lambdas: Sequence[float],
    strategies: Sequence[str] = (),
    strategy_lambda: float = 50.0,
) -> list[Arm]:
    lambdas = tuple(lambdas)
    arms = [
        Arm("no-preprocessing", lambda corrupted, pristine: psi(corrupted, pristine)),
        Arm(
            "Algo_NGST (opt L)",
            lambda corrupted, pristine: best_sensitivity(
                corrupted, pristine, lambdas
            )[1],
        ),
    ]
    for strategy in strategies:
        algo = AlgoNGST(
            strategy_arm_config(strategy, sensitivity=strategy_lambda)
        )
        arms.append(
            Arm(
                f"Algo_NGST {strategy} L={int(strategy_lambda)}",
                lambda corrupted, pristine, algo=algo: psi(
                    algo(corrupted).corrected, pristine
                ),
            )
        )
    arms += [
        Arm(
            "median-w3",
            lambda corrupted, pristine: psi(
                median_smooth_temporal(corrupted), pristine
            ),
        ),
        Arm(
            "majority-w3",
            lambda corrupted, pristine: psi(
                majority_vote_temporal(corrupted), pristine
            ),
        ),
    ]
    return arms


def graph(
    gamma_ini_grid: Sequence[float] = DEFAULT_GAMMA_INI_GRID,
    lambdas: Sequence[float] = DEFAULT_LAMBDA_GRID,
    sigma: float = 25.0,
    n_variants: int = 64,
    shape: tuple[int, ...] = (16, 16),
    n_repeats: int = 3,
    seed: int = 2003,
    strategies: Sequence[str] = (),
    strategy_lambda: float = 50.0,
) -> TaskGraph:
    """The Figure 4 campaign as a task graph ending in :data:`TABLE_NODE`.

    *strategies* appends one Algo_NGST arm per named
    strategy at Λ = *strategy_lambda*, mirroring figure 2.
    """
    result_graph = TaskGraph("fig4")
    dataset = walk_dataset(
        NGSTDatasetConfig(n_variants=n_variants, sigma=sigma), shape
    )
    arms = _arms(lambdas, strategies, strategy_lambda)
    aggregates = [
        add_arm_sweep(
            result_graph,
            f"fig4/g{index:02d}",
            arms,
            dataset,
            CorrelatedFaultModel(CorrelatedFaultConfig(gamma_ini=gamma_ini)),
            n_repeats,
            seed,
        )
        for index, gamma_ini in enumerate(gamma_ini_grid)
    ]
    add_result_table(
        result_graph,
        TABLE_NODE,
        aggregates,
        experiment_id="fig4",
        title="Correlated fault model: Algo_NGST vs median vs majority",
        x_label="Gamma_ini",
        y_label="avg relative error Psi",
        x=list(gamma_ini_grid),
        notes=[
            f"sigma={sigma}, N={n_variants}, coords={shape}, "
            f"{n_repeats} repeats"
        ],
    )
    return result_graph


def run(
    gamma_ini_grid: Sequence[float] = DEFAULT_GAMMA_INI_GRID,
    lambdas: Sequence[float] = DEFAULT_LAMBDA_GRID,
    sigma: float = 25.0,
    n_variants: int = 64,
    shape: tuple[int, ...] = (16, 16),
    n_repeats: int = 3,
    seed: int = 2003,
    strategies: Sequence[str] = (),
    strategy_lambda: float = 50.0,
) -> ExperimentResult:
    """Regenerate the Figure 4 comparison by running :func:`graph`."""
    figure_graph = graph(
        gamma_ini_grid=gamma_ini_grid,
        lambdas=lambdas,
        sigma=sigma,
        n_variants=n_variants,
        shape=shape,
        n_repeats=n_repeats,
        seed=seed,
        strategies=strategies,
        strategy_lambda=strategy_lambda,
    )
    return run_figure_graph(figure_graph, TABLE_NODE)
