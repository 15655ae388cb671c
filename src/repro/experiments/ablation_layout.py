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
    arm_means,
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


def _layout_trial(dataset_cfg, shape, lambdas, model, layouts, arms):
    """One seeded draw scoring every ``(which, layout name)`` arm.

    The walk and the injector seed are drawn once; each layout's data
    is injected once, by a fresh injector on that seed over
    ``model(layout)``, and scored raw (``"none"``) or after Algo_NGST at
    the best Λ (``"algo"``).
    """

    def trial(rng: np.random.Generator) -> list[float]:
        pristine = generate_walk(dataset_cfg, rng, shape)
        injector_seed = int(rng.integers(2**31))
        corrupted: dict[str, np.ndarray] = {}
        values = []
        for which, name in arms:
            if name not in corrupted:
                injector = FaultInjector(model(layouts[name]), seed=injector_seed)
                corrupted[name], _ = injector.inject(pristine)
            if which == "none":
                values.append(psi(corrupted[name], pristine))
            else:
                values.append(best_sensitivity(corrupted[name], pristine, lambdas)[1])
        return values

    return trial


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
    layouts = {"row-major": RowMajorLayout(), "interleaved": InterleavedLayout()}
    arms = {
        "row-major raw": ("none", "row-major"),
        "interleaved raw": ("none", "interleaved"),
        "row-major + Algo_NGST": ("algo", "row-major"),
        "interleaved + Algo_NGST": ("algo", "interleaved"),
    }
    curves: dict[str, list[float]] = {label: [] for label in arms}

    for gamma_ini in gamma_ini_grid:

        def model(layout):
            return CorrelatedFaultModel(
                CorrelatedFaultConfig(gamma_ini=gamma_ini), layout=layout
            )

        trial = _layout_trial(
            dataset_cfg, shape, lambdas, model, layouts, arms.values()
        )
        for label, value in zip(arms, arm_means(trial, n_repeats, seed)):
            curves[label].append(value)

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
        "time-major": None,
        "pixel-major": PixelMajorLayout(n_variants),
        "interleaved": InterleavedLayout(),
    }
    arms = {
        "raw (any layout)": ("none", "time-major"),
        "pixel-major + Algo_NGST": ("algo", "pixel-major"),
        "time-major + Algo_NGST": ("algo", "time-major"),
        "interleaved + Algo_NGST": ("algo", "interleaved"),
    }
    curves: dict[str, list[float]] = {label: [] for label in arms}

    for rate in burst_rate_grid:
        channel = GilbertElliottConfig(
            p_good_to_bad=rate, p_bad_to_good=BURST_ESCAPE, flip_prob_bad=BURST_FLIP
        )

        def model(layout):
            return TransitFaultModel(channel, layout=layout)

        trial = _layout_trial(
            dataset_cfg, shape, lambdas, model, layouts, arms.values()
        )
        for label, value in zip(arms, arm_means(trial, n_repeats, seed)):
            curves[label].append(value)

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
