"""Figure 3 — preprocessing execution overhead as a function of Λ.

Paper shape: overhead is negligible at Λ = 0 (header sanity only) and
grows with the sensitivity, since Λ widens window B — "which needs
maximum computational effort" — and admits more voters.  The generic
algorithms are fixed-cost reference lines.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.baselines.majority import majority_vote_temporal
from repro.baselines.median import median_smooth_temporal
from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.data.ngst import generate_walk
from repro.experiments.common import ExperimentResult
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.overhead import time_callable


def run(
    lambdas: Sequence[float] = (0.0, 10.0, 25.0, 50.0, 75.0, 100.0),
    sigma: float = 25.0,
    n_variants: int = 64,
    shape: tuple[int, ...] = (64, 64),
    gamma0: float = 0.01,
    repeats: int = 3,
    seed: int = 2003,
) -> ExperimentResult:
    """Regenerate the Figure 3 overhead curve (milliseconds per stack)."""
    rng = np.random.default_rng(seed)
    pristine = generate_walk(
        NGSTDatasetConfig(n_variants=n_variants, sigma=sigma), rng, shape
    )
    corrupted, _ = FaultInjector(UncorrelatedFaultModel(gamma0), seed=seed).inject(
        pristine
    )
    result = ExperimentResult(
        experiment_id="fig3",
        title="Preprocessing overhead vs sensitivity",
        x_label="sensitivity",
        y_label="milliseconds per stack",
    )

    algo_ms = []
    for lam in lambdas:
        if lam == 0:
            # Λ = 0 performs only the FITS-header sanity analysis; on a
            # bare stack that is a no-op pass-through.
            from repro.core.preprocessor import NGSTPreprocessor

            pre = NGSTPreprocessor(NGSTConfig(sensitivity=0))
            timing = time_callable(lambda: pre.process_stack(corrupted), repeats)
        else:
            algo = AlgoNGST(NGSTConfig(sensitivity=lam))
            timing = time_callable(lambda: algo(corrupted), repeats)
        algo_ms.append(timing.best_seconds * 1e3)
    result.add("Algo_NGST", list(lambdas), algo_ms)

    median_ms = time_callable(
        lambda: median_smooth_temporal(corrupted), repeats
    ).best_seconds * 1e3
    majority_ms = time_callable(
        lambda: majority_vote_temporal(corrupted), repeats
    ).best_seconds * 1e3
    result.add("median-w3 (flat)", list(lambdas), [median_ms] * len(lambdas))
    result.add("majority-w3 (flat)", list(lambdas), [majority_ms] * len(lambdas))
    result.note(f"stack: N={n_variants} x {shape}, best of {repeats} runs")
    return result
