"""Figure 9 — OTIS datasets under the correlated fault model.

Paper shape: all three preprocessing algorithms share a breakdown point
near Γ_ini ≈ 0.2; beyond it, preprocessing *deteriorates* the data
(corrupted bits pseudo-correct the remaining clean bits), since all
three schemes interpolate from neighbouring bits.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.baselines.majority import majority_vote_spatial
from repro.baselines.median import median_smooth_spatial
from repro.config import CorrelatedFaultConfig, OTISConfig
from repro.core.algo_otis import AlgoOTIS
from repro.data.otis import DATASET_NAMES, make_dataset
from repro.experiments.common import ExperimentResult, arm_means
from repro.faults.correlated import CorrelatedFaultModel
from repro.faults.injector import FaultInjector
from repro.metrics.relative_error import psi
from repro.otis.quantize import decode_dn, encode_dn

DEFAULT_GAMMA_INI_GRID = (0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4)
DEFAULT_OTIS_LAMBDAS = (20.0, 40.0, 60.0, 80.0, 100.0)


def run(
    datasets: Sequence[str] = DATASET_NAMES,
    gamma_ini_grid: Sequence[float] = DEFAULT_GAMMA_INI_GRID,
    lambdas: Sequence[float] = DEFAULT_OTIS_LAMBDAS,
    rows: int = 48,
    cols: int = 48,
    n_repeats: int = 2,
    seed: int = 2003,
) -> list[ExperimentResult]:
    """Regenerate the Figure 9 panels: one result per OTIS dataset."""
    # The pseudo-correction fraction reads the default Λ's result, which
    # the sweep computes anyway when the grid holds it.
    default = OTISConfig().sensitivity
    swept_lambdas = tuple(lambdas)
    if default not in swept_lambdas:
        swept_lambdas += (default,)
    results = []
    for name in datasets:
        result = ExperimentResult(
            experiment_id=f"fig9-{name}",
            title=f"OTIS '{name}': correlated faults (run model)",
            x_label="Gamma_ini",
            y_label="avg relative error Psi",
        )
        labels = ("no-preprocessing", "Algo_OTIS (opt L)", "median-3x3", "majority-3")
        curves: dict[str, list[float]] = {label: [] for label in labels}

        for gamma_ini in gamma_ini_grid:

            def trial(rng: np.random.Generator) -> list[float]:
                field = make_dataset(name, rows, cols, rng)
                dn = encode_dn(field)
                pristine = decode_dn(dn)
                model = CorrelatedFaultModel(
                    CorrelatedFaultConfig(gamma_ini=gamma_ini)
                )
                injector = FaultInjector(model, seed=int(rng.integers(2**31)))
                corrupted, _ = injector.inject(dn)
                swept = AlgoOTIS(OTISConfig()).sweep(corrupted, swept_lambdas)
                best = min(
                    psi(decode_dn(r.corrected), pristine) for r in swept[: len(lambdas)]
                )
                # The breakdown mechanism the paper describes: corrupted
                # bits pseudo-correcting clean bits.  The fraction is
                # weighted by binary significance (a falsely flipped high
                # bit harms far more than a repaired low bit helps);
                # crossing 0.5 means net harm at the bit level.
                processed = swept[swept_lambdas.index(default)].corrected
                injected = np.bitwise_xor(dn, corrupted)
                residual = np.bitwise_xor(dn, processed)
                good = float((injected & ~residual).astype(np.float64).sum())
                harm = float((~injected & residual).astype(np.float64).sum())
                return [
                    psi(decode_dn(corrupted), pristine),
                    best,
                    psi(decode_dn(median_smooth_spatial(corrupted)), pristine),
                    psi(decode_dn(majority_vote_spatial(corrupted)), pristine),
                    harm / (good + harm) if good + harm else 0.0,
                ]

            *values, fp_ratio = arm_means(trial, n_repeats, seed)
            for label, value in zip(labels, values):
                curves[label].append(value)
            curves.setdefault("Algo_OTIS pseudo-corr fraction", []).append(fp_ratio)

        for label in labels:
            result.add(label, list(gamma_ini_grid), curves[label])
        result.add(
            "Algo_OTIS pseudo-corr fraction",
            list(gamma_ini_grid),
            curves["Algo_OTIS pseudo-corr fraction"],
        )
        result.note(f"{rows}x{cols} field, DN storage, {n_repeats} repeats")
        result.note(
            "pseudo-corr fraction = significance-weighted false-alarm share "
            "of the algorithm's bit-flips at the default sensitivity; it "
            "rises sharply past Gamma_ini ~ 0.2 (the paper's breakdown point)"
        )
        results.append(result)
    return results


def breakdown_point(result: ExperimentResult, algorithm_label: str) -> float | None:
    """First Γ_ini at which *algorithm_label* stops improving the data.

    Returns None if the algorithm still helps across the whole grid —
    useful for asserting the "≈ 0.2 for all three algorithms" claim.
    """
    raw = result.series_by_label("no-preprocessing")
    algo = result.series_by_label(algorithm_label)
    for x, y_raw, y_algo in zip(raw.x, raw.y, algo.y):
        if y_algo >= y_raw:
            return float(x)
    return None
