"""Experiment registry: id → runnable.

Ids mirror the paper's figure numbering; ``run_experiment`` normalises
single results and panel lists into a list of results.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.exceptions import ConfigurationError
from repro.experiments import (
    ablation_layout,
    ablation_locality,
    ablation_storage,
    ablation_windows,
    compression,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    motivation,
)
from repro.experiments.common import ExperimentResult

REGISTRY: dict[str, Callable] = {
    "fig1": figure1.run,
    "fig2": figure2.run,
    "fig3": figure3.run,
    "fig4": figure4.run,
    "fig5": figure5.run,
    "fig6": figure6.run,
    "fig7": figure7.run,
    "fig8": figure8.run,
    "fig9": figure9.run,
    "ablate-layout": ablation_layout.run,
    "ablate-locality": ablation_locality.run,
    "ablate-storage": ablation_storage.run,
    "ablate-windows": ablation_windows.run,
    "compression": compression.run,
    "motivation": motivation.run,
}


def run_experiment(experiment_id: str, **kwargs) -> list[ExperimentResult]:
    """Run one registered experiment; returns its result panels.

    Args:
        experiment_id: a key of :data:`REGISTRY`.
        **kwargs: forwarded to the experiment's ``run``.
    """
    try:
        runner = REGISTRY[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(REGISTRY)}"
        ) from None
    outcome = runner(**kwargs)
    if isinstance(outcome, ExperimentResult):
        return [outcome]
    return list(outcome)
