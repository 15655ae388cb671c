"""Compression experiment — §2's downlink-budget angle.

The paper notes that cosmic rays cut the NGST data compression ratio by
about 12 % besides the outright data loss; random bit-flips do the same
to the Rice coder (they destroy the smoothness its difference predictor
feeds on).  This experiment measures the Rice compression ratio of a
detector frame as Γ₀ grows, raw vs preprocessed — preprocessing buys
downlink bandwidth back as well as accuracy.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.data.ngst import generate_image_stack, synthetic_sky
from repro.experiments.common import ExperimentResult, arm_means
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.ngst.rice import compression_ratio


def run(
    gamma0_grid: Sequence[float] = (0.0, 0.001, 0.005, 0.01, 0.025, 0.05),
    sensitivity: float = 90.0,
    sigma: float = 25.0,
    n_variants: int = 16,
    side: int = 48,
    n_repeats: int = 3,
    seed: int = 2003,
) -> ExperimentResult:
    """Rice compression ratio vs Γ₀, raw vs preprocessed readouts."""
    result = ExperimentResult(
        experiment_id="compression",
        title="Rice compression ratio under input bit-flips",
        x_label="Gamma0",
        y_label="compression ratio (x)",
    )
    labels = ("clean reference", "corrupted", "preprocessed")
    curves: dict[str, list[float]] = {label: [] for label in labels}

    for gamma0 in gamma0_grid:

        def trial(rng: np.random.Generator) -> list[float]:
            config = NGSTDatasetConfig(n_variants=n_variants, sigma=sigma)
            # A mild sky (soft sources) keeps the clean frames in the
            # regime where Rice coding earns its keep, as on real
            # detector data.
            base = synthetic_sky(
                side, side, rng, background=1200.0, n_sources=6,
                peak=4000.0, psf_sigma=3.0,
            )
            stack = generate_image_stack(config, rng, side, side, base=base)
            injector = FaultInjector(
                UncorrelatedFaultModel(gamma0), seed=int(rng.integers(2**31))
            )
            corrupted, _ = injector.inject(stack)
            repaired = AlgoNGST(NGSTConfig(sensitivity=sensitivity))(
                corrupted
            ).corrected
            return [
                compression_ratio(stack),
                compression_ratio(corrupted),
                compression_ratio(repaired),
            ]

        for label, value in zip(labels, arm_means(trial, n_repeats, seed)):
            curves[label].append(value)

    for label in labels:
        result.add(label, list(gamma0_grid), curves[label])
    result.note(
        f"frame stack N={n_variants} x {side}x{side}, sigma={sigma}, "
        f"L={sensitivity}"
    )
    return result
