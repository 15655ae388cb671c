"""Ablation — §8's memory-layout recommendation.

"We recommend the technique of storing the neighboring pixels using a
preset mapping into different physical regions in the memory
organization, so that ... the correlated block faults occurring in
contiguous regions in memory will not affect the temporal or spatial
redundancy preserved elsewhere."

Two panels:

1. **memory block faults** (Eq. 2): row-major vs interleaved placement.
   The Eq. 2 run-length distribution is short-tailed, so this panel is a
   near-null result — recorded honestly.
2. **transit bursts** (Gilbert–Elliott): the regime where placement
   decides everything.  A pixel-major serialisation (each pixel's N
   temporal variants contiguous — the naive cache-friendly choice) lets
   one burst wipe a whole redundancy group; time-major or interleaved
   serialisation confines the burst to at most one variant per pixel
   and preprocessing recovers fully.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import CorrelatedFaultConfig, NGSTDatasetConfig
from repro.data.ngst import generate_walk
from repro.experiments.common import (
    DEFAULT_LAMBDA_GRID,
    ExperimentResult,
    averaged,
    best_sensitivity,
)
from repro.faults.correlated import CorrelatedFaultModel
from repro.faults.injector import FaultInjector
from repro.faults.layout import InterleavedLayout, PixelMajorLayout, RowMajorLayout
from repro.faults.transit import GilbertElliottConfig, TransitFaultModel
from repro.metrics.relative_error import psi

DEFAULT_GAMMA_INI_GRID = (0.02, 0.05, 0.1, 0.15, 0.2)
DEFAULT_BURST_RATE_GRID = (1e-5, 5e-5, 2e-4)
#: Mean burst length of ~250 bits (~15 words) at the default escape rate.
BURST_ESCAPE = 0.004
BURST_FLIP = 0.5


def run(
    gamma_ini_grid: Sequence[float] = DEFAULT_GAMMA_INI_GRID,
    burst_rate_grid: Sequence[float] = DEFAULT_BURST_RATE_GRID,
    lambdas: Sequence[float] = DEFAULT_LAMBDA_GRID,
    sigma: float = 25.0,
    n_variants: int = 64,
    shape: tuple[int, ...] = (16, 16),
    n_repeats: int = 3,
    seed: int = 2003,
) -> list[ExperimentResult]:
    """Both layout panels: Eq. 2 memory faults and transit bursts."""
    return [
        _memory_panel(
            gamma_ini_grid, lambdas, sigma, n_variants, shape, n_repeats, seed
        ),
        _transit_panel(
            burst_rate_grid, lambdas, sigma, n_variants, shape, n_repeats, seed
        ),
    ]


def _memory_panel(
    gamma_ini_grid, lambdas, sigma, n_variants, shape, n_repeats, seed
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablate-layout",
        title="Memory layout under Eq.2 correlated faults (post-Algo_NGST Psi)",
        x_label="Gamma_ini",
        y_label="avg relative error Psi",
    )
    dataset_cfg = NGSTDatasetConfig(n_variants=n_variants, sigma=sigma)
    layouts = {
        "row-major raw": ("none", RowMajorLayout()),
        "interleaved raw": ("none", InterleavedLayout()),
        "row-major + Algo_NGST": ("algo", RowMajorLayout()),
        "interleaved + Algo_NGST": ("algo", InterleavedLayout()),
    }
    curves: dict[str, list[float]] = {label: [] for label in layouts}

    for gamma_ini in gamma_ini_grid:

        def one_point(rng: np.random.Generator, which: str, layout) -> float:
            pristine = generate_walk(dataset_cfg, rng, shape)
            model = CorrelatedFaultModel(
                CorrelatedFaultConfig(gamma_ini=gamma_ini), layout=layout
            )
            injector = FaultInjector(model, seed=int(rng.integers(2**31)))
            corrupted, _ = injector.inject(pristine)
            if which == "none":
                return psi(corrupted, pristine)
            _, best = best_sensitivity(corrupted, pristine, lambdas)
            return best

        for label, (which, layout) in layouts.items():
            curves[label].append(
                averaged(
                    lambda rng: one_point(rng, which, layout),
                    n_repeats,
                    seed,
                )
            )

    for label, ys in curves.items():
        result.add(label, list(gamma_ini_grid), ys)
    result.note(f"sigma={sigma}, N={n_variants}, coords={shape}")
    result.note(
        "Eq.2 runs are short (mean < 2 bits), so placement barely matters "
        "here — see the transit panel for the regime where it does"
    )
    return result


def _transit_panel(
    burst_rate_grid, lambdas, sigma, n_variants, shape, n_repeats, seed
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablate-layout-transit",
        title="Serialisation layout under transit bursts (post-Algo_NGST Psi)",
        x_label="burst initiation rate",
        y_label="avg relative error Psi",
    )
    dataset_cfg = NGSTDatasetConfig(n_variants=n_variants, sigma=sigma)
    layouts = {
        "raw (any layout)": ("none", None),
        "pixel-major + Algo_NGST": ("algo", PixelMajorLayout(n_variants)),
        "time-major + Algo_NGST": ("algo", None),
        "interleaved + Algo_NGST": ("algo", InterleavedLayout()),
    }
    curves: dict[str, list[float]] = {label: [] for label in layouts}

    for rate in burst_rate_grid:
        channel = GilbertElliottConfig(
            p_good_to_bad=rate, p_bad_to_good=BURST_ESCAPE, flip_prob_bad=BURST_FLIP
        )

        def one_point(rng: np.random.Generator, which: str, layout) -> float:
            pristine = generate_walk(dataset_cfg, rng, shape)
            model = TransitFaultModel(channel, layout=layout)
            injector = FaultInjector(model, seed=int(rng.integers(2**31)))
            corrupted, _ = injector.inject(pristine)
            if which == "none":
                return psi(corrupted, pristine)
            _, best = best_sensitivity(corrupted, pristine, lambdas)
            return best

        for label, (which, layout) in layouts.items():
            curves[label].append(
                averaged(
                    lambda rng: one_point(rng, which, layout),
                    n_repeats,
                    seed,
                )
            )

    for label, ys in curves.items():
        result.add(label, list(burst_rate_grid), ys)
    result.note(
        f"mean burst ~{1 / BURST_ESCAPE:.0f} bits; sigma={sigma}, "
        f"N={n_variants}, coords={shape}"
    )
    result.note(
        "pixel-major serialisation lets one burst erase a pixel's whole "
        "temporal redundancy group; interleaving (the §8 recommendation) "
        "makes the damage recoverable again"
    )
    return result
