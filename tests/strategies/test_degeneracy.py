"""Strategy-equivalence harness, part 1: disabled adaptivity IS the baseline.

The selective strategy and the autotuner earn their place only if
turning them off reproduces Algorithm 1 *bit for bit* — approximate
equality would let a silent behaviour change ride in under the flag.
Gated here:

* ``selective`` with the all-sensitive default map ≡ ``fixed``;
* a ``frozen`` :class:`AutotuneVoterStage` ≡ a plain ``VoterStage``.

The suite injects only uncorrelated faults, so no call reaches the C
correlated scan: CI's NumPy-tier and default-tier runs execute the same
code.
"""

import numpy as np
import pytest

from repro.config import NGSTConfig, NGSTDatasetConfig, STRATEGY_CHOICES
from repro.core.algo_ngst import AlgoNGST
from repro.core.strategies import region_mask, strategy_arm_config
from repro.data.ngst import generate_walk
from repro.exceptions import ConfigurationError
from repro.faults import UncorrelatedFaultModel


def corrupted_stack(shape=(8, 12), n=32, gamma=0.01, seed=5, sigma=25.0):
    rng = np.random.default_rng(seed)
    pristine = generate_walk(
        NGSTDatasetConfig(n_variants=n, sigma=sigma), rng, shape
    )
    corrupted, _ = UncorrelatedFaultModel(gamma).corrupt(pristine, rng)
    return corrupted


def assert_identical(result_a, result_b):
    assert result_a.corrected.tobytes() == result_b.corrected.tobytes()
    assert (
        result_a.correction_vectors.tobytes()
        == result_b.correction_vectors.tobytes()
    )
    assert result_a.n_pixels_corrected == result_b.n_pixels_corrected
    assert result_a.n_bits_corrected == result_b.n_bits_corrected


class TestSelectiveDegeneracy:
    def test_all_sensitive_default_map_is_byte_identical_to_fixed(self):
        pixels = corrupted_stack(shape=(8, 12))
        fixed = AlgoNGST(NGSTConfig())(pixels)
        selective = AlgoNGST(NGSTConfig(strategy="selective"))(pixels)
        assert_identical(fixed, selective)

    def test_temporal_only_stack_delegates_to_fixed(self):
        # No coordinates ⇒ no regions ⇒ wholesale delegation, even with
        # the map knobs set.
        pixels = corrupted_stack(shape=())
        fixed = AlgoNGST(NGSTConfig())(pixels)
        selective = AlgoNGST(
            NGSTConfig(strategy="selective", margin=2, science_fast=True)
        )(pixels)
        assert_identical(fixed, selective)

    def test_region_mask_semantics(self):
        cfg = NGSTConfig(
            strategy="selective", margin=1, header_rows=2, science_fast=False
        )
        mask = region_mask((6, 5), cfg)
        # Margin border is low-sensitivity (below the header rows)...
        assert not mask[5, :].any() and not mask[2:, 0].any()
        # ...but header rows override everything back to sensitive.
        assert mask[0, :].all() and mask[1, :].all()
        # Interior stays sensitive without science_fast.
        assert mask[2:5, 1:4].all()
        assert region_mask((), cfg) is None

    def test_science_fast_keeps_headers_protected(self):
        mask = region_mask(
            (6, 5), NGSTConfig(strategy="selective", science_fast=True, header_rows=1)
        )
        assert mask[0, :].all()
        assert not mask[1:, :].any()

    def test_partitioned_run_matches_column_slices(self):
        # Per-coordinate thresholds are column-independent, so the
        # sensitive partition must equal a fixed run on those columns.
        pixels = corrupted_stack(shape=(6, 6), gamma=0.02)
        cfg = NGSTConfig(
            strategy="selective", margin=1, per_coordinate_thresholds=True
        )
        result = AlgoNGST(cfg)(pixels)
        mask = region_mask((6, 6), cfg)
        flat = pixels.reshape(pixels.shape[0], -1)
        sens = np.nonzero(mask.reshape(-1))[0]
        reference = AlgoNGST(
            NGSTConfig(per_coordinate_thresholds=True)
        )(np.ascontiguousarray(flat[:, sens]))
        got = result.correction_vectors.reshape(pixels.shape[0], -1)[:, sens]
        assert got.tobytes() == reference.correction_vectors.tobytes()


class TestStrategyPlumbing:
    def test_arm_config_round_trips_names(self):
        for name in STRATEGY_CHOICES:
            assert strategy_arm_config(name).strategy == name
        with pytest.raises(ConfigurationError):
            strategy_arm_config("voting-by-vibes")

    def test_config_validates_strategy_fields(self):
        for retired_or_unknown in ("adaptive", "nope"):
            with pytest.raises(ConfigurationError):
                NGSTConfig(strategy=retired_or_unknown)
        with pytest.raises(ConfigurationError):
            NGSTConfig(strategy="selective", margin=-1)
        with pytest.raises(ConfigurationError):
            NGSTConfig(strategy="selective", header_rows=-2)
        # The region map is read only by the selective strategy; under
        # fixed it would be silently ignored, so it is refused.
        for override in (
            {"margin": 1},
            {"header_rows": 1},
            {"science_fast": True},
        ):
            with pytest.raises(ConfigurationError, match="selective"):
                NGSTConfig(**override)
            NGSTConfig(strategy="selective", **override)  # accepted
