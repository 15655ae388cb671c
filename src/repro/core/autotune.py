"""Ground-truth-free sensitivity selection.

The paper's results use "experimentally optimized values of Υ and
sensitivity Λ" (§6) — optimised against the pristine data, which a
flying system does not have.  This module closes that gap with a
two-step self-calibration that needs only the corrupted data itself:

1. **Estimate the environment.**  The natural temporal variation σ̂ is
   estimated robustly from adjacent-variant differences (median absolute
   difference, which bit-flips barely move), and the bit-flip rate Γ̂
   from the disagreement rate of the *top bits* — positions whose
   binary weight dwarfs σ̂, where natural variation (even with carry
   ripple) cannot reach, so any disagreement is a flip on one side of
   the pair.
2. **Calibrate on the analytical model.**  Eq. (1) is generative: we
   synthesise walks at (σ̂, Γ̂), inject matching faults, and pick the Λ
   that minimises Ψ on the synthetic data — the same procedure the
   paper's designers ran on the NGST Mission Simulator, automated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core import bitops
from repro.core.algo_ngst import AlgoNGST
from repro.data.ngst import generate_walk, walk_from_steps
from repro.exceptions import DataFormatError
from repro.faults.injector import FaultInjector, derive_injector_seed
from repro.faults.uncorrelated import UncorrelatedFaultModel, pack_planes
from repro.metrics.relative_error import psi

DEFAULT_LAMBDA_GRID = (10.0, 30.0, 50.0, 70.0, 90.0, 100.0)

#: Gaussian consistency constant: MAD of N(0, σ) samples ≈ 0.6745·σ, so
#: dividing a median absolute deviation by this estimates σ.
MAD_SCALE = 0.6745


@dataclass(frozen=True)
class AutotuneResult:
    """Outcome of one self-calibration.

    Attributes:
        sensitivity: the selected Λ.
        estimated_sigma: σ̂, the natural-variation estimate.
        estimated_gamma: Γ̂, the per-bit flip-rate estimate.
        calibration_psi: synthetic Ψ achieved at the selected Λ.
    """

    sensitivity: float
    estimated_sigma: float
    estimated_gamma: float
    calibration_psi: float


def estimate_sigma(corrupted: np.ndarray) -> float:
    """Robust σ̂ from adjacent-variant differences.

    Under Eq. (1) the adjacent difference *is* the increment Θᵢ ~
    N(0, σ), so the median absolute difference divided by 0.6745 (the
    Gaussian MAD constant) estimates σ directly; the (sparse, huge)
    flip-induced outliers barely move a median.
    """
    if corrupted.ndim < 1 or corrupted.shape[0] < 2:
        raise DataFormatError("need a temporal stack with >= 2 variants")
    diffs = np.abs(np.diff(corrupted.astype(np.float64), axis=0))
    mad = float(np.median(diffs))
    return mad / MAD_SCALE


def estimate_gamma(corrupted: np.ndarray, sigma_hat: float) -> float:
    """Γ̂ from top-bit disagreements between adjacent variants.

    Bits with weight > 8·σ̂ cannot differ naturally between adjacent
    variants except through a carry chain crossing their boundary, which
    the robust σ̂ bounds to a negligible rate; a disagreement there means
    one of the two variants carries a flip at that bit, so the pairwise
    disagreement rate ≈ 2Γ (minus the 2Γ² double-flip overlap).
    """
    bitops.require_unsigned(corrupted, "corrupted")
    if corrupted.ndim < 1 or corrupted.shape[0] < 2:
        # A single variant has no adjacent pair to disagree: the XOR
        # stack below would be empty and its mean a NaN + RuntimeWarning.
        raise DataFormatError("need a temporal stack with >= 2 variants")
    nbits = bitops.bit_width(corrupted.dtype)
    # Top bits: weight strictly above the natural-variation reach.
    floor_bit = int(np.ceil(np.log2(max(8.0 * sigma_hat, 1.0))))
    usable = [b for b in range(floor_bit + 1, nbits)]
    if len(usable) < 2:
        # Extremely turbulent data: fall back to the top two bits.
        usable = [nbits - 2, nbits - 1]
    xors = np.bitwise_xor(corrupted[1:], corrupted[:-1])
    rates = []
    for b in usable:
        plane = (xors >> np.asarray(b, dtype=xors.dtype)) & np.asarray(
            1, dtype=xors.dtype
        )
        rates.append(float(plane.mean()))
    # A carry chain crossing bit b's boundary also toggles it, at a rate
    # ~ σ̂/2^b that *halves* per bit; flip-induced disagreements are flat
    # across bits.  The minimum over the usable bits therefore isolates
    # the flip contribution.
    pair_rate = float(np.min(rates))
    # pair_rate = 2Γ(1−Γ) ⇒ Γ = (1 − sqrt(1 − 2·pair_rate)) / 2.
    pair_rate = min(pair_rate, 0.499)
    return float((1.0 - np.sqrt(1.0 - 2.0 * pair_rate)) / 2.0)


def autotune_sensitivity(
    corrupted: np.ndarray,
    upsilon: int = 4,
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
    calibration_shape: tuple[int, ...] = (8, 8),
    n_calibration: int = 2,
    seed: int = 0,
) -> AutotuneResult:
    """Select Λ for *corrupted* without ground truth.

    Args:
        corrupted: the fault-exposed temporal stack, shape ``(N, ...)``.
        upsilon: Υ to tune for.
        lambda_grid: candidate sensitivities.
        calibration_shape: coordinate grid of the synthetic calibration
            walks (kept small; the optimum Λ depends on (σ, Γ), not on
            the dataset size).
        n_calibration: synthetic datasets averaged per candidate.
        seed: calibration seed.

    The calibration's random draws depend only on ``(seed,
    n_calibration, calibration_shape, N)``, never on σ̂ or Γ̂, so they are
    drawn once (:func:`_calibration_draws`) and every later call with
    the same four rebuilds its walks and fault masks from them.  The
    walks are stacked along a coordinate axis — thresholds are per
    coordinate — so one :meth:`AlgoNGST.sweep` scores every candidate
    on every walk.  The result equals
    :func:`_reference_autotune_sensitivity`'s.
    """
    sigma_hat = estimate_sigma(corrupted)
    gamma_hat = estimate_gamma(corrupted, sigma_hat)
    n_variants = int(corrupted.shape[0])
    dataset_cfg = NGSTDatasetConfig(
        n_variants=n_variants,
        sigma=float(min(sigma_hat, 8000.0)),
        initial_value=_calibration_start(corrupted),
    )
    shape = tuple(calibration_shape)
    normals, uniforms = _calibration_draws(seed, n_calibration, shape, n_variants)
    # (N, n_calibration) + shape: walk c is pristine[:, c].
    pristine = walk_from_steps(
        float(dataset_cfg.initial_value),
        dataset_cfg.sigma * normals,
        dataset_cfg.background_floor,
    )
    masks = pack_planes(uniforms < min(gamma_hat, 1.0), pristine.dtype)
    damaged = np.bitwise_xor(pristine, np.moveaxis(masks, 0, 1))
    sweep = AlgoNGST(NGSTConfig(upsilon=upsilon)).sweep(damaged, lambda_grid)
    best_lambda, best_psi = lambda_grid[0], None
    for lam, result in zip(lambda_grid, sweep):
        # Ψ walk by walk, as separate datasets, so each mean sums in the
        # same order as a lone walk's would.
        value = float(
            np.mean(
                [
                    psi(result.corrected[:, c], pristine[:, c])
                    for c in range(n_calibration)
                ]
            )
        )
        if best_psi is None or value < best_psi:
            best_lambda, best_psi = lam, value
    return AutotuneResult(
        sensitivity=float(best_lambda),
        estimated_sigma=float(sigma_hat),
        estimated_gamma=float(gamma_hat),
        calibration_psi=float(best_psi),
    )


def _calibration_start(corrupted: np.ndarray) -> int:
    """The calibration walks' start: the stack's median, clipped to 16 bits."""
    return int(np.clip(np.median(corrupted.astype(np.float64)), 32, 0xFFFF))


@functools.lru_cache(maxsize=4)
def _calibration_draws(
    seed: int, n_calibration: int, calibration_shape: tuple[int, ...], n_variants: int
) -> tuple[np.ndarray, np.ndarray]:
    """The calibration's seed-fixed draws, read-only: ``(normals, uniforms)``.

    Child ``c`` of ``SeedSequence(seed)`` draws its walk's N − 1
    standard normals (``normals[:, c]``, so the walks stack along axis
    1), then its injector seed, from whose Generator come the 16 bit
    planes of uniforms that the uncorrelated model compares against Γ
    (``uniforms[c]``).  That is the order and count in which
    :func:`~repro.data.ngst.generate_walk` and a seeded
    :class:`FaultInjector` consume them.  About 1.1 MiB at N = 64 on
    the default 8 × 8 grid with two walks.
    """
    shape = (n_variants,) + calibration_shape
    normals = np.empty((n_variants - 1, n_calibration) + calibration_shape)
    uniforms = np.empty((n_calibration, 16) + shape)
    for c, child in enumerate(np.random.SeedSequence(seed).spawn(n_calibration)):
        rng = np.random.default_rng(child)
        normals[:, c] = rng.standard_normal((n_variants - 1,) + calibration_shape)
        np.random.default_rng(derive_injector_seed(rng)).random(out=uniforms[c])
    normals.flags.writeable = False
    uniforms.flags.writeable = False
    return normals, uniforms


def _reference_autotune_sensitivity(
    corrupted: np.ndarray,
    upsilon: int = 4,
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
    calibration_shape: tuple[int, ...] = (8, 8),
    n_calibration: int = 2,
    seed: int = 0,
) -> AutotuneResult:
    """Oracle for :func:`autotune_sensitivity`: draw each calibration
    walk and inject its faults afresh, and sweep each walk alone."""
    sigma_hat = estimate_sigma(corrupted)
    gamma_hat = estimate_gamma(corrupted, sigma_hat)
    dataset_cfg = NGSTDatasetConfig(
        n_variants=int(corrupted.shape[0]),
        sigma=float(min(sigma_hat, 8000.0)),
        initial_value=_calibration_start(corrupted),
    )
    best_lambda, best_psi = lambda_grid[0], None
    seeds = np.random.SeedSequence(seed).spawn(n_calibration)
    synthetic = []
    for child in seeds:
        rng = np.random.default_rng(child)
        pristine = generate_walk(dataset_cfg, rng, calibration_shape)
        injector = FaultInjector(
            UncorrelatedFaultModel(min(gamma_hat, 1.0)),
            seed=int(rng.integers(2**31)),
        )
        damaged, _ = injector.inject(pristine)
        synthetic.append((pristine, damaged))
    algo = AlgoNGST(NGSTConfig(upsilon=upsilon))
    sweeps = [algo.sweep(d, lambda_grid) for _, d in synthetic]
    for i, lam in enumerate(lambda_grid):
        value = float(
            np.mean(
                [psi(sweep[i].corrected, p) for (p, _), sweep in zip(synthetic, sweeps)]
            )
        )
        if best_psi is None or value < best_psi:
            best_lambda, best_psi = lam, value
    return AutotuneResult(
        sensitivity=float(best_lambda),
        estimated_sigma=float(sigma_hat),
        estimated_gamma=float(gamma_hat),
        calibration_psi=float(best_psi),
    )
