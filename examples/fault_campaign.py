#!/usr/bin/env python3
"""Statistical fault-injection campaign across all three fault models.

The paper's evaluation averages every data point over many datasets
(Figure 5 uses 100).  This example is that loop written out: each
trial seeds a generator from one ``SeedSequence.spawn`` child,
generates a dataset, corrupts it, and scores Ψ raw and after
preprocessing, so both arms see the same corruption.  It compares the
two — with 95% confidence intervals — under the three fault loci
§2.2.2 names: at source/in memory (uncorrelated), in memory under
radiation bursts (correlated, Eq. 2), and during transit (Gilbert–
Elliott bursts on the serial stream).

Run:  python examples/fault_campaign.py
"""

import math

import numpy as np

from repro import (
    AlgoNGST,
    CorrelatedFaultModel,
    FaultInjector,
    NGSTConfig,
    NGSTDatasetConfig,
    UncorrelatedFaultModel,
    generate_walk,
    psi,
)
from repro.faults import GilbertElliottConfig, TransitFaultModel

N_TRIALS = 25
SEED = 11
#: z-score of a two-sided 95% normal-approximation interval.
Z_95 = 1.96


def generate(rng: np.random.Generator) -> np.ndarray:
    return generate_walk(
        NGSTDatasetConfig(n_variants=64, sigma=25.0), rng, shape=(16, 16)
    )


def mean_and_half_width(values: list[float]) -> tuple[float, float]:
    """Sample mean and the half-width of its 95% confidence interval."""
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return float(np.mean(values)), Z_95 * std / math.sqrt(len(values))


def main() -> None:
    algo = AlgoNGST(NGSTConfig(upsilon=4, sensitivity=80))
    models = (
        ("uncorrelated  G0=1%", UncorrelatedFaultModel(0.01)),
        ("correlated    Gi=2%", CorrelatedFaultModel(0.02)),
        (
            "transit burst p=2e-4",
            TransitFaultModel(
                GilbertElliottConfig(
                    p_good_to_bad=2e-4, p_bad_to_good=0.04, flip_prob_bad=0.4
                )
            ),
        ),
    )

    print(f"{N_TRIALS} trials per arm, 95% confidence intervals\n")
    print(f"{'fault model':<22} {'Psi raw':>20} {'Psi preprocessed':>22} {'gain':>7}")
    for label, model in models:
        raw, pre = [], []
        for child in np.random.SeedSequence(SEED).spawn(N_TRIALS):
            rng = np.random.default_rng(child)
            pristine = generate(rng)
            injector = FaultInjector(model, seed=int(rng.integers(2**31)))
            corrupted, _ = injector.inject(pristine)
            raw.append(float(psi(corrupted, pristine)))
            pre.append(float(psi(algo(corrupted).corrected, pristine)))
        raw_mean, raw_half = mean_and_half_width(raw)
        pre_mean, pre_half = mean_and_half_width(pre)
        ratio = raw_mean / pre_mean if pre_mean else float("inf")
        print(
            f"{label:<22} "
            f"{raw_mean:>11.5f} ±{raw_half:.5f} "
            f"{pre_mean:>13.6f} ±{pre_half:.6f} "
            f"{ratio:>6.1f}x"
        )

    print(
        "\nThe same preprocessing configuration recovers all three fault "
        "loci; burst-type faults\n(correlated/transit) are harder than "
        "i.i.d. flips at equal marginal rates, since whole\nneighbour "
        "groups get damaged together."
    )


if __name__ == "__main__":
    main()
