"""Figure 5 — performance across the entire gamut of mean intensities.

Γ₀ = 2.5 %, Υ = 4, optimum Λ per dataset, averaged over many datasets
(the paper uses 100).  Paper shape: preprocessing wins across the whole
gamut; the *relative* error of the unpreprocessed data falls with mean
intensity (a fixed bit-flip damage divided by a larger denominator),
and detector background noise keeps the bottom of the gamut non-zero.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.baselines.majority import majority_vote_temporal
from repro.baselines.median import median_smooth_temporal
from repro.data.gamut import gamut_dataset, gamut_means
from repro.experiments.common import (
    DEFAULT_LAMBDA_GRID,
    ExperimentResult,
    averaged,
    best_sensitivity,
)
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.relative_error import psi


def run(
    means: Sequence[int] | None = None,
    gamma0: float = 0.025,
    lambdas: Sequence[float] = DEFAULT_LAMBDA_GRID,
    sigma: float = 25.0,
    n_variants: int = 64,
    n_datasets: int = 20,
    seed: int = 2003,
) -> ExperimentResult:
    """Regenerate the Figure 5 gamut sweep.

    ``n_datasets`` plays the role of the paper's 100-dataset averaging;
    reduce it for quick runs, raise it for smoother curves.
    """
    if means is None:
        means = gamut_means(10).tolist()
    result = ExperimentResult(
        experiment_id="fig5",
        title="Performance across the gamut of mean intensities",
        x_label="mean intensity",
        y_label="avg relative error Psi",
    )
    labels = ("no-preprocessing", "Algo_NGST (opt L)", "median-w3", "majority-w3")
    curves: dict[str, list[float]] = {label: [] for label in labels}

    for mean in means:

        def one_point(rng: np.random.Generator, which: str) -> float:
            pristine = gamut_dataset(
                int(mean), rng, n_variants=n_variants, sigma=sigma
            )
            injector = FaultInjector(
                UncorrelatedFaultModel(gamma0), seed=int(rng.integers(2**31))
            )
            corrupted, _ = injector.inject(pristine)
            if which == "none":
                return psi(corrupted, pristine)
            if which == "median":
                return psi(median_smooth_temporal(corrupted), pristine)
            if which == "majority":
                return psi(majority_vote_temporal(corrupted), pristine)
            _, best = best_sensitivity(corrupted, pristine, lambdas)
            return best

        for label, which in zip(labels, ("none", "algo", "median", "majority")):
            curves[label].append(
                averaged(lambda rng: one_point(rng, which), n_datasets, seed)
            )

    for label in labels:
        result.add(label, [float(m) for m in means], curves[label])
    result.note(
        f"Gamma0={gamma0}, upsilon=4, optimum L per dataset, "
        f"{n_datasets} datasets per point"
    )
    return result
