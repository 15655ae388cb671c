"""Figure 6 — quasi-NGST synthetic datasets with swept σ; Υ ∈ {2, 4, 6}.

Paper shapes, row by row:

* σ = 0 (constant pixel intensity): larger Υ is better (6 > 4 > 2),
  especially at higher Γ₀ — with no natural variation, more consulted
  neighbours can only help.
* moderate σ: a Υ = 4 / Υ = 6 optimality cross-over appears as Γ₀
  grows (the paper puts it near Γ₀ ≈ 0.04 at σ = 250).
* σ = 8000 (extremely turbulent, overflow-truncated): Υ = 6 is worst
  at low Γ₀ (false alarms dominate) yet best at very high Γ₀; Υ = 6
  has the flattest curve, Υ = 2 the steepest.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import NGSTDatasetConfig
from repro.data.ngst import generate_walk
from repro.experiments.common import (
    DEFAULT_LAMBDA_GRID,
    ExperimentResult,
    arm_means,
    best_sensitivity,
)
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.relative_error import psi

DEFAULT_SIGMA_GRID = (0.0, 25.0, 250.0, 8000.0)
DEFAULT_GAMMA0_GRID = (0.001, 0.0025, 0.005, 0.01, 0.02, 0.04, 0.08)


def run(
    sigmas: Sequence[float] = DEFAULT_SIGMA_GRID,
    upsilons: Sequence[int] = (2, 4, 6),
    gamma0_grid: Sequence[float] = DEFAULT_GAMMA0_GRID,
    lambdas: Sequence[float] = DEFAULT_LAMBDA_GRID,
    n_variants: int = 64,
    shape: tuple[int, ...] = (12, 12),
    n_repeats: int = 3,
    seed: int = 2003,
) -> list[ExperimentResult]:
    """Regenerate the Figure 6 panel grid: one result per σ.

    Every (σ, Υ, Γ₀) point uses the per-point optimal Λ, mirroring the
    paper's use of experimentally optimised parameters.
    """
    results = []
    for sigma in sigmas:
        result = ExperimentResult(
            experiment_id=f"fig6-sigma{int(sigma)}",
            title=f"Upsilon comparison at sigma={sigma:g} (Pi(1)=27000)",
            x_label="Gamma0",
            y_label="avg relative error Psi",
        )
        dataset_cfg = NGSTDatasetConfig(n_variants=n_variants, sigma=sigma)
        curves: dict[str, list[float]] = {f"upsilon={u}": [] for u in upsilons}
        none_curve: list[float] = []
        for gamma0 in gamma0_grid:

            def trial(rng: np.random.Generator) -> list[float]:
                pristine = generate_walk(dataset_cfg, rng, shape)
                injector = FaultInjector(
                    UncorrelatedFaultModel(gamma0), seed=int(rng.integers(2**31))
                )
                corrupted, _ = injector.inject(pristine)
                return [psi(corrupted, pristine)] + [
                    best_sensitivity(corrupted, pristine, lambdas, upsilon)[1]
                    for upsilon in upsilons
                ]

            none_value, *values = arm_means(trial, n_repeats, seed)
            none_curve.append(none_value)
            for upsilon, value in zip(upsilons, values):
                curves[f"upsilon={upsilon}"].append(value)
        result.add("no-preprocessing", list(gamma0_grid), none_curve)
        for label, ys in curves.items():
            result.add(label, list(gamma0_grid), ys)
        result.note(f"optimum L per point, N={n_variants}, coords={shape}")
        results.append(result)
    return results
