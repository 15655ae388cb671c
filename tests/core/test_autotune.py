"""Tests for ground-truth-free sensitivity selection."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.core import autotune
from repro.core.autotune import (
    DEFAULT_LAMBDA_GRID,
    _calibration_draws,
    _reference_autotune_sensitivity,
    autotune_sensitivity,
    estimate_gamma,
    estimate_sigma,
)
from repro.data.ngst import generate_walk
from repro.exceptions import DataFormatError
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.relative_error import psi


def world(sigma, gamma, seed=42, shape=(16, 16)):
    rng = np.random.default_rng(seed)
    pristine = generate_walk(
        NGSTDatasetConfig(n_variants=64, sigma=sigma), rng, shape
    )
    corrupted, _ = FaultInjector(UncorrelatedFaultModel(gamma), seed=3).inject(
        pristine
    )
    return pristine, corrupted


class TestEstimateSigma:
    def test_recovers_sigma(self):
        _, corrupted = world(sigma=100.0, gamma=0.0)
        assert estimate_sigma(corrupted) == pytest.approx(100.0, rel=0.2)

    def test_robust_to_flips(self):
        _, corrupted = world(sigma=100.0, gamma=0.01)
        assert estimate_sigma(corrupted) == pytest.approx(100.0, rel=0.3)

    def test_zero_sigma(self):
        _, corrupted = world(sigma=0.0, gamma=0.001)
        assert estimate_sigma(corrupted) < 5.0

    def test_rejects_single_variant(self):
        with pytest.raises(DataFormatError):
            estimate_sigma(np.zeros((1, 4), dtype=np.uint16))


class TestEstimateGamma:
    @pytest.mark.parametrize("gamma", [0.001, 0.01, 0.05])
    def test_recovers_gamma(self, gamma):
        _, corrupted = world(sigma=25.0, gamma=gamma)
        sigma_hat = estimate_sigma(corrupted)
        estimate = estimate_gamma(corrupted, sigma_hat)
        assert estimate == pytest.approx(gamma, rel=0.45)

    def test_clean_data_near_zero(self):
        _, corrupted = world(sigma=25.0, gamma=0.0)
        assert estimate_gamma(corrupted, 25.0) < 1e-3

    def test_turbulent_fallback_bits(self):
        _, corrupted = world(sigma=8000.0, gamma=0.01)
        sigma_hat = estimate_sigma(corrupted)
        # Works (falls back to the top two bits) and stays in [0, 0.5].
        estimate = estimate_gamma(corrupted, sigma_hat)
        assert 0.0 <= estimate < 0.5


class TestAutotune:
    @pytest.mark.parametrize(
        "sigma,gamma", [(0.0, 0.01), (25.0, 0.001), (25.0, 0.05), (250.0, 0.01)]
    )
    def test_within_striking_distance_of_oracle(self, sigma, gamma):
        pristine, corrupted = world(sigma=sigma, gamma=gamma)
        result = autotune_sensitivity(corrupted)
        auto = psi(
            AlgoNGST(NGSTConfig(sensitivity=result.sensitivity))(
                corrupted
            ).corrected,
            pristine,
        )
        oracle = min(
            psi(
                AlgoNGST(NGSTConfig(sensitivity=lam))(corrupted).corrected,
                pristine,
            )
            for lam in (10, 30, 50, 70, 90, 100)
        )
        assert auto <= oracle * 1.5 + 1e-12

    def test_result_fields(self):
        _, corrupted = world(sigma=25.0, gamma=0.01)
        result = autotune_sensitivity(corrupted)
        assert result.sensitivity in (10.0, 30.0, 50.0, 70.0, 90.0, 100.0)
        assert result.estimated_sigma >= 0
        assert 0 <= result.estimated_gamma < 0.5
        assert result.calibration_psi >= 0

    def test_deterministic(self):
        _, corrupted = world(sigma=25.0, gamma=0.01)
        a = autotune_sensitivity(corrupted, seed=5)
        b = autotune_sensitivity(corrupted, seed=5)
        assert a == b

    def test_custom_grid_respected(self):
        _, corrupted = world(sigma=25.0, gamma=0.01)
        result = autotune_sensitivity(corrupted, lambda_grid=(40.0, 60.0))
        assert result.sensitivity in (40.0, 60.0)


#: Stacks the estimators must never choke on: any uint16 content, any
#: stack depth >= 2, flat or with coordinates.
def _stacks(min_variants=2):
    return st.tuples(
        st.integers(min_value=min_variants, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=0xFFFF),
        st.randoms(use_true_random=False),
    ).map(
        lambda t: (
            np.asarray(
                [
                    [(t[2] + t[3].randint(-(2**15), 2**15)) & 0xFFFF for _ in range(t[1])]
                    for _ in range(t[0])
                ],
                dtype=np.uint16,
            )
        )
    )


class TestEstimatorProperties:
    """Hypothesis sweeps over the estimator edge cases.

    The estimators run unattended in the online autotuner; a NaN, a
    RuntimeWarning, or an unraised error on a degenerate window would
    poison the Λ trajectory silently.  Every property below is asserted
    under ``warnings.catch_warnings(error)`` so numpy's empty-slice and
    invalid-value warnings fail loudly.
    """

    @settings(max_examples=60, deadline=None)
    @given(stack=_stacks())
    def test_estimates_are_finite_and_warning_free(self, stack):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma_hat = estimate_sigma(stack)
            gamma_hat = estimate_gamma(stack, sigma_hat)
        assert np.isfinite(sigma_hat) and sigma_hat >= 0.0
        assert np.isfinite(gamma_hat) and 0.0 <= gamma_hat < 0.5

    @settings(max_examples=30, deadline=None)
    @given(
        value=st.integers(min_value=0, max_value=0xFFFF),
        n=st.integers(min_value=2, max_value=16),
        width=st.integers(min_value=1, max_value=8),
    )
    def test_constant_frames_estimate_exactly_zero(self, value, n, width):
        # σ̂ = 0 and Γ̂ = 0 on a constant stack — no adjacent difference,
        # no top-bit disagreement, and no warnings along the way.
        stack = np.full((n, width), value, dtype=np.uint16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma_hat = estimate_sigma(stack)
            gamma_hat = estimate_gamma(stack, sigma_hat)
        assert sigma_hat == 0.0
        assert gamma_hat == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16), sigma=st.sampled_from([1.0, 25.0, 250.0]))
    def test_fault_free_walks_estimate_gamma_zero(self, seed, sigma):
        rng = np.random.default_rng(seed)
        pristine = generate_walk(
            NGSTDatasetConfig(n_variants=16, sigma=sigma), rng, (4, 4)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma_hat = estimate_sigma(pristine)
            gamma_hat = estimate_gamma(pristine, sigma_hat)
        assert gamma_hat < 1e-2

    @settings(max_examples=20, deadline=None)
    @given(
        width=st.integers(min_value=0, max_value=5),
        value=st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_single_variant_stacks_raise_cleanly(self, width, value):
        # One variant (or zero) has no adjacent pair: both estimators
        # must raise DataFormatError instead of warning + NaN.
        shape = (1, width) if width else (1,)
        stack = np.full(shape, value, dtype=np.uint16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError):
                estimate_sigma(stack)
            with pytest.raises(DataFormatError):
                estimate_gamma(stack, 25.0)
            with pytest.raises(DataFormatError):
                estimate_gamma(stack[:0], 25.0)

    @settings(max_examples=15, deadline=None)
    @given(stack=_stacks())
    def test_estimators_are_pure(self, stack):
        before = stack.copy()
        sigma_a = estimate_sigma(stack)
        gamma_a = estimate_gamma(stack, sigma_a)
        sigma_b = estimate_sigma(stack)
        gamma_b = estimate_gamma(stack, sigma_b)
        assert (sigma_a, gamma_a) == (sigma_b, gamma_b)
        assert stack.tobytes() == before.tobytes()


#: Window contents for the oracle test.  ``constant`` estimates σ̂ = 0
#: and Γ̂ = 0; ``saturated`` alternates all-zero and all-one frames, so
#: σ̂ is far above the 8000 clip and Γ̂ sits at its 0.478 clip;
#: ``gamma_one`` is a faulty walk whose Γ̂ is replaced by 1.
_WINDOWS = ("constant", "clean", "faulty", "saturated", "gamma_one")


def _window(kind, n_variants, seed):
    if kind == "constant":
        return np.full((n_variants, 16), 27000, dtype=np.uint16)
    if kind == "saturated":
        frames = np.zeros((n_variants, 16), dtype=np.uint16)
        frames[1::2] = 0xFFFF
        return frames
    rng = np.random.default_rng(seed)
    pristine = generate_walk(
        NGSTDatasetConfig(n_variants=n_variants, sigma=25.0), rng, (16,)
    )
    if kind == "clean":
        return pristine
    corrupted, _ = FaultInjector(UncorrelatedFaultModel(0.02), seed=seed).inject(
        pristine
    )
    return corrupted


class TestCalibrationOracle:
    """The calibration rebuilt from cached draws and swept in one pass
    equals the per-walk draw-inject-sweep loop it replaced."""

    @seed(2003)
    @settings(max_examples=40, deadline=None, database=None)
    @example(kind="constant", n_variants=32, shape=(8, 8), n_calibration=2,
             grid=DEFAULT_LAMBDA_GRID, calibration_seed=0)
    @example(kind="saturated", n_variants=64, shape=(8, 8), n_calibration=2,
             grid=DEFAULT_LAMBDA_GRID, calibration_seed=0)
    @example(kind="gamma_one", n_variants=32, shape=(4,), n_calibration=2,
             grid=DEFAULT_LAMBDA_GRID, calibration_seed=1)
    @example(kind="faulty", n_variants=3, shape=(), n_calibration=1,
             grid=DEFAULT_LAMBDA_GRID, calibration_seed=0)
    @example(kind="faulty", n_variants=64, shape=(8, 8), n_calibration=3,
             grid=(70.0, 10.0, 70.0, 30.0), calibration_seed=2)
    @example(kind="clean", n_variants=32, shape=(), n_calibration=3,
             grid=(100.0, 5.0, 100.0), calibration_seed=3)
    @given(
        kind=st.sampled_from(_WINDOWS),
        n_variants=st.sampled_from([3, 32, 64]),
        shape=st.sampled_from([(), (4,), (8, 8)]),
        n_calibration=st.integers(min_value=1, max_value=3),
        grid=st.sampled_from(
            [DEFAULT_LAMBDA_GRID, (70.0, 10.0, 70.0, 30.0), (100.0, 5.0, 100.0), (50.0,)]
        ),
        calibration_seed=st.integers(min_value=0, max_value=3),
    )
    def test_equals_the_reference(
        self, kind, n_variants, shape, n_calibration, grid, calibration_seed
    ):
        window = _window(kind, n_variants, calibration_seed)
        kwargs = dict(
            lambda_grid=grid,
            calibration_shape=shape,
            n_calibration=n_calibration,
            seed=calibration_seed,
        )
        gamma = mock.patch.object(autotune, "estimate_gamma", return_value=1.0)
        if kind == "gamma_one":
            with gamma:
                got = autotune_sensitivity(window, **kwargs)
                want = _reference_autotune_sensitivity(window, **kwargs)
            assert got.estimated_gamma == 1.0
        else:
            got = autotune_sensitivity(window, **kwargs)
            want = _reference_autotune_sensitivity(window, **kwargs)
        assert got == want
        if kind == "constant":
            assert got.estimated_sigma == got.estimated_gamma == 0.0
        if kind == "saturated":
            assert got.estimated_sigma > 8000.0
            assert got.estimated_gamma == pytest.approx(0.478, abs=1e-3)

    def test_draws_are_cached_read_only_and_seeded(self):
        normals, uniforms = _calibration_draws(0, 2, (8, 8), 32)
        assert normals.shape == (31, 2, 8, 8)
        assert uniforms.shape == (2, 16, 32, 8, 8)
        assert _calibration_draws(0, 2, (8, 8), 32)[1] is uniforms
        for array in (normals, uniforms):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0.5
        other_normals, other_uniforms = _calibration_draws(1, 2, (8, 8), 32)
        assert not np.array_equal(normals, other_normals)
        assert not np.array_equal(uniforms, other_uniforms)

    def test_retune_draws_nothing_new(self):
        # After the first call, a retune at another σ̂/Γ̂ reuses the draws.
        _, corrupted = world(sigma=25.0, gamma=0.01, shape=(8,))
        autotune_sensitivity(corrupted, seed=11)
        before = _calibration_draws.cache_info()
        _, other = world(sigma=250.0, gamma=0.05, shape=(8,))
        autotune_sensitivity(other, seed=11)
        after = _calibration_draws.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
