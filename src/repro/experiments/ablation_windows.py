"""Ablation — the bit-window design choices of §3.1/§3.3.

Algorithm 1 treats the three bit windows differently: window A accepts
a Υ−1 vote (GRT), window B demands unanimity, and window C is masked
off.  This ablation disables each rule in turn:

* ``full``           — the published combination (reference);
* ``no-window-A``    — unanimity required everywhere (GRT disabled);
* ``grt-everywhere`` — the relaxed Υ−1 vote applied to window B too;
* ``no-window-C``    — corrections allowed below the LSB mask.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import NGSTDatasetConfig
from repro.core import bitops
from repro.core.voter import VoterMatrix
from repro.core.windows import BitWindows
from repro.data.ngst import generate_walk
from repro.experiments.common import ExperimentResult, averaged
from repro.exceptions import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.relative_error import psi

VARIANTS = ("full", "no-window-A", "grt-everywhere", "no-window-C")


def preprocess_variant(
    corrupted: np.ndarray,
    variant: str,
    sensitivity: float = 80.0,
    upsilon: int = 4,
) -> np.ndarray:
    """Run Algo_NGST with one window rule disabled (see module docs)."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}; choose {VARIANTS}")
    matrix = VoterMatrix(corrupted, upsilon)
    thresholds = matrix.thresholds(sensitivity, per_coordinate=True)
    voters = matrix.pruned(thresholds)
    nbits = bitops.bit_width(corrupted.dtype)
    windows = BitWindows.from_thresholds(thresholds, nbits)
    unanimous = VoterMatrix.unanimous(voters)
    grt = VoterMatrix.grt(voters)
    una64 = unanimous.astype(np.uint64)
    grt64 = grt.astype(np.uint64)
    full_mask = np.uint64((1 << nbits) - 1)
    if variant == "full":
        corr = (una64 | (grt64 & windows.msb_mask)) & windows.lsb_mask
    elif variant == "no-window-A":
        corr = una64 & windows.lsb_mask
    elif variant == "grt-everywhere":
        corr = grt64 & windows.lsb_mask
    else:  # no-window-C
        corr = (una64 | (grt64 & windows.msb_mask)) & full_mask
    return np.bitwise_xor(corrupted, corr.astype(corrupted.dtype))


def run(
    gamma0_grid: Sequence[float] = (0.001, 0.005, 0.01, 0.025, 0.05),
    sensitivity: float = 80.0,
    sigma: float = 25.0,
    n_variants: int = 64,
    shape: tuple[int, ...] = (16, 16),
    n_repeats: int = 3,
    seed: int = 2003,
) -> ExperimentResult:
    """Psi of each window-rule variant across Γ₀."""
    result = ExperimentResult(
        experiment_id="ablate-windows",
        title="Bit-window rule ablation for Algo_NGST",
        x_label="Gamma0",
        y_label="avg relative error Psi",
    )
    dataset_cfg = NGSTDatasetConfig(n_variants=n_variants, sigma=sigma)
    curves: dict[str, list[float]] = {"no-preprocessing": []}
    curves.update({v: [] for v in VARIANTS})

    for gamma0 in gamma0_grid:

        def one_point(rng: np.random.Generator, variant: str | None) -> float:
            pristine = generate_walk(dataset_cfg, rng, shape)
            injector = FaultInjector(
                UncorrelatedFaultModel(gamma0), seed=int(rng.integers(2**31))
            )
            corrupted, _ = injector.inject(pristine)
            if variant is None:
                return psi(corrupted, pristine)
            return psi(preprocess_variant(corrupted, variant, sensitivity), pristine)

        curves["no-preprocessing"].append(
            averaged(lambda rng: one_point(rng, None), n_repeats, seed)
        )
        for variant in VARIANTS:
            curves[variant].append(
                averaged(lambda rng: one_point(rng, variant), n_repeats, seed)
            )

    for label, ys in curves.items():
        result.add(label, list(gamma0_grid), ys)
    result.note(f"L={sensitivity}, sigma={sigma}, N={n_variants}, coords={shape}")
    return result
