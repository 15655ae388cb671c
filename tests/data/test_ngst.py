"""Tests for the Eq. (1) NGST dataset generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NGSTDatasetConfig
from repro.data.ngst import (
    U16_MAX,
    generate_image_stack,
    generate_walk,
    synthetic_sky,
)
from repro.exceptions import ConfigurationError


class TestGenerateWalk:
    def test_shape_1d(self, rng):
        walk = generate_walk(NGSTDatasetConfig(n_variants=16), rng)
        assert walk.shape == (16,)
        assert walk.dtype == np.uint16

    def test_shape_with_coordinates(self, rng):
        walk = generate_walk(NGSTDatasetConfig(n_variants=8), rng, shape=(3, 5))
        assert walk.shape == (8, 3, 5)

    def test_starts_at_initial_value(self, rng):
        cfg = NGSTDatasetConfig(initial_value=12345)
        walk = generate_walk(cfg, rng, shape=(4,))
        assert np.all(walk[0] == 12345)

    def test_sigma_zero_is_constant(self, rng):
        walk = generate_walk(NGSTDatasetConfig(sigma=0.0), rng, shape=(4,))
        assert np.all(walk == walk[0])

    def test_increments_match_sigma(self, rng):
        cfg = NGSTDatasetConfig(n_variants=64, sigma=100.0, initial_value=30000)
        walk = generate_walk(cfg, rng, shape=(64,))
        diffs = np.diff(walk.astype(np.float64), axis=0)
        assert diffs.std() == pytest.approx(100.0, rel=0.1)

    def test_overflow_truncated(self, rng):
        cfg = NGSTDatasetConfig(
            n_variants=64, sigma=8000.0, initial_value=60000
        )
        walk = generate_walk(cfg, rng, shape=(16,))
        assert walk.max() <= U16_MAX

    def test_background_floor_respected(self, rng):
        cfg = NGSTDatasetConfig(
            n_variants=64, sigma=8000.0, initial_value=1000, background_floor=32
        )
        walk = generate_walk(cfg, rng, shape=(16,))
        assert walk.min() >= 32

    def test_deterministic_under_seed(self):
        cfg = NGSTDatasetConfig(n_variants=8)
        a = generate_walk(cfg, np.random.default_rng(1), shape=(4,))
        b = generate_walk(cfg, np.random.default_rng(1), shape=(4,))
        assert np.array_equal(a, b)

    def test_coordinates_independent(self, rng):
        cfg = NGSTDatasetConfig(n_variants=32, sigma=200.0)
        walk = generate_walk(cfg, rng, shape=(2,))
        assert not np.array_equal(walk[:, 0], walk[:, 1])

    @pytest.mark.parametrize("sigma", [0.0, 25.0, 8000.0])
    def test_matches_the_scaled_normal_draw(self, sigma):
        # σ·z from standard_normal is rng.normal(0, σ)'s value and
        # consumes the Generator alike, so the walk and the draw after
        # it are what the pre-refactor formula gave.
        cfg = NGSTDatasetConfig(n_variants=33, sigma=sigma, initial_value=60000)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        walk = generate_walk(cfg, rng_a, shape=(5, 3))
        steps = rng_b.normal(0.0, sigma, size=(32, 5, 3))
        want = np.empty((33, 5, 3))
        want[0] = 60000.0
        want[1:] = 60000.0 + np.cumsum(steps, axis=0)
        want = np.clip(np.rint(want), 32, U16_MAX).astype(np.uint16)
        assert walk.tobytes() == want.tobytes()
        assert rng_a.integers(2**31) == rng_b.integers(2**31)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=64))
    def test_variant_count_property(self, n):
        cfg = NGSTDatasetConfig(n_variants=n)
        walk = generate_walk(cfg, np.random.default_rng(0), shape=(2,))
        assert walk.shape[0] == n


class TestSyntheticSky:
    def test_shape(self, rng):
        frame = synthetic_sky(32, 48, rng)
        assert frame.shape == (32, 48)

    def test_background_level(self, rng):
        frame = synthetic_sky(64, 64, rng, background=500.0, n_sources=0)
        assert np.allclose(frame, 500.0)

    def test_sources_add_flux(self, rng):
        frame = synthetic_sky(64, 64, rng, background=100.0, n_sources=10)
        assert frame.max() > 100.0

    def test_rejects_empty_frame(self, rng):
        with pytest.raises(ConfigurationError):
            synthetic_sky(0, 10, rng)


class TestGenerateImageStack:
    def test_shape(self, rng):
        cfg = NGSTDatasetConfig(n_variants=8)
        stack = generate_image_stack(cfg, rng, 16, 16)
        assert stack.shape == (8, 16, 16)
        assert stack.dtype == np.uint16

    def test_custom_base_used(self, rng):
        base = np.full((8, 8), 5000.0)
        cfg = NGSTDatasetConfig(n_variants=4, sigma=0.0)
        stack = generate_image_stack(cfg, rng, 8, 8, base=base)
        assert np.all(stack == 5000)

    def test_base_shape_validated(self, rng):
        with pytest.raises(ConfigurationError):
            generate_image_stack(
                NGSTDatasetConfig(), rng, 8, 8, base=np.zeros((4, 4))
            )
