"""Figures 7/8 — OTIS under the uncorrelated fault model: the three
characteristic datasets (Blob / Stripe / Spots), Algo_OTIS vs the two
adapted standard algorithms.

Paper shapes (§8): at Γ₀ = 0.05 the raw input error is ≈ 12 % and
preprocessing brings it well below one percent; bitwise majority voting
beats median smoothing overall; the custom Algo_OTIS performs far
better than either for Γ₀ ≥ 0.025.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.baselines.majority import majority_vote_spatial
from repro.baselines.median import median_smooth_spatial
from repro.config import OTISConfig
from repro.core.algo_otis import AlgoOTIS
from repro.data.otis import DATASET_NAMES, make_dataset
from repro.experiments.common import ExperimentResult, arm_means
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.relative_error import psi
from repro.otis.quantize import decode_dn, encode_dn

DEFAULT_GAMMA0_GRID = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1)
DEFAULT_OTIS_LAMBDAS = (20.0, 40.0, 60.0, 80.0, 100.0)


def run(
    datasets: Sequence[str] = DATASET_NAMES,
    gamma0_grid: Sequence[float] = DEFAULT_GAMMA0_GRID,
    lambdas: Sequence[float] = DEFAULT_OTIS_LAMBDAS,
    rows: int = 64,
    cols: int = 64,
    n_repeats: int = 3,
    seed: int = 2003,
) -> list[ExperimentResult]:
    """Regenerate the Figure 7 panels: one result per OTIS dataset.

    Faults strike the 16-bit DN storage encoding; Ψ is measured on the
    decoded physical values (see DESIGN.md §2 for the substitution).
    """
    results = []
    for name in datasets:
        result = ExperimentResult(
            experiment_id=f"fig7-{name}",
            title=f"OTIS '{name}': uncorrelated faults",
            x_label="Gamma0",
            y_label="avg relative error Psi",
        )
        labels = ("no-preprocessing", "Algo_OTIS (opt L)", "median-3x3", "majority-3")
        curves: dict[str, list[float]] = {label: [] for label in labels}

        for gamma0 in gamma0_grid:

            def trial(rng: np.random.Generator) -> list[float]:
                field = make_dataset(name, rows, cols, rng)
                dn = encode_dn(field)
                pristine = decode_dn(dn)
                injector = FaultInjector(
                    UncorrelatedFaultModel(gamma0), seed=int(rng.integers(2**31))
                )
                corrupted, _ = injector.inject(dn)
                swept = AlgoOTIS(OTISConfig()).sweep(corrupted, lambdas)
                return [
                    psi(decode_dn(corrupted), pristine),
                    min(psi(decode_dn(r.corrected), pristine) for r in swept),
                    psi(decode_dn(median_smooth_spatial(corrupted)), pristine),
                    psi(decode_dn(majority_vote_spatial(corrupted)), pristine),
                ]

            for label, value in zip(labels, arm_means(trial, n_repeats, seed)):
                curves[label].append(value)

        for label in labels:
            result.add(label, list(gamma0_grid), curves[label])
        result.note(f"{rows}x{cols} field, DN storage encoding, {n_repeats} repeats")
        results.append(result)
    return results
