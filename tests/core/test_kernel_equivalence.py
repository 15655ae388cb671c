"""Property tests: every vectorized kernel is bit-identical to its
``_reference_*`` oracle.

PR 2 rewrote the hot-path kernels (correlated flip grid, voter
combiners, bitops, sliding-window baselines, OTIS scan gather/scatter)
as vectorized NumPy with the explicit contract that outputs match the
original implementations bit for bit.  The originals are kept as
``_reference_*`` functions; these tests sweep randomized shapes, dtypes
and seeds against them so any drift in the fast paths is caught exactly,
not approximately.
"""

from __future__ import annotations

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines import majority, median, smoothing
from repro.core import bitops, voter
from repro.faults.correlated import (
    _reference_correlated_flip_grid,
    correlated_flip_grid,
)
from repro.native import kernel_tier, native_available
from repro.ngst import rice
from repro.otis import scan

UNSIGNED_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64]

#: Tier parametrization for the dispatched kernels: the native column
#: skips cleanly when no extension can be built (no compiler / no cffi).
TIER_PARAMS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("reference", id="reference"),
    pytest.param(
        "native",
        id="native",
        marks=pytest.mark.skipif(
            not native_available(), reason="native extension unavailable"
        ),
    ),
]


def _random_unsigned(rng, shape, dtype):
    info = np.iinfo(dtype)
    return rng.integers(0, int(info.max), size=shape, dtype=dtype, endpoint=True)


# ---------------------------------------------------------------------------
# bitops
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", UNSIGNED_DTYPES)
def test_ceil_pow2_matches_reference(rng, dtype):
    values = _random_unsigned(rng, (257,), dtype).astype(np.uint64)
    edges = np.array([0, 1, 2, 3, 4, 5, 1023, 1024, 1025, 2**63], dtype=np.uint64)
    for arr in (values, edges):
        assert np.array_equal(bitops.ceil_pow2(arr), bitops._reference_ceil_pow2(arr))
    assert bitops.ceil_pow2(0) == bitops._reference_ceil_pow2(0) == 1
    assert bitops.ceil_pow2(1000) == bitops._reference_ceil_pow2(1000)


@pytest.mark.parametrize("dtype", UNSIGNED_DTYPES)
@pytest.mark.parametrize("shape", [(), (1,), (13,), (5, 9), (3, 4, 7)])
def test_bit_planes_roundtrip_matches_reference(rng, dtype, shape):
    arr = _random_unsigned(rng, shape, dtype)
    planes = bitops.to_bit_planes(arr)
    ref_planes = bitops._reference_to_bit_planes(arr)
    assert planes.dtype == ref_planes.dtype
    assert np.array_equal(planes, ref_planes)
    back = bitops.from_bit_planes(planes, dtype)
    ref_back = bitops._reference_from_bit_planes(ref_planes, dtype)
    assert back.dtype == ref_back.dtype
    assert np.array_equal(back, ref_back)
    assert np.array_equal(back, arr)


@pytest.mark.parametrize("dtype", UNSIGNED_DTYPES)
def test_highest_set_bit_value_matches_reference(rng, dtype):
    arr = _random_unsigned(rng, (64,), dtype)
    arr.flat[0] = 0  # the zero sentinel must survive vectorization
    assert np.array_equal(
        bitops.highest_set_bit_value(arr),
        bitops._reference_highest_set_bit_value(arr),
    )


# ---------------------------------------------------------------------------
# voter combiners
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 7, 16])
def test_neighbour_indices_matches_reference(n):
    for offset in range(-2 * n, 2 * n + 1):
        assert np.array_equal(
            voter.neighbour_indices(n, offset),
            voter._reference_neighbour_indices(n, offset),
        )


@pytest.mark.parametrize("dtype", UNSIGNED_DTYPES)
@pytest.mark.parametrize("upsilon", [2, 4, 6, 8])
def test_voter_combiners_match_reference(rng, dtype, upsilon):
    voters = _random_unsigned(rng, (upsilon, 10, 4, 4), dtype)
    # Sparsify so leave-one-out unions actually differ from unanimity.
    voters[rng.random(voters.shape) < 0.5] = 0
    assert np.array_equal(
        voter.VoterMatrix.unanimous(voters), voter._reference_unanimous(voters)
    )
    assert np.array_equal(
        voter.VoterMatrix.grt(voters), voter._reference_grt(voters)
    )


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_pruned_no_uint64_blowup_matches_semantics(rng, dtype):
    pixels = _random_unsigned(rng, (12, 6, 6), dtype)
    matrix = voter.VoterMatrix(pixels, upsilon=4)
    thresholds = matrix.thresholds(sensitivity=0.95)
    pruned = matrix.pruned(thresholds)
    assert pruned.dtype == matrix.xors.dtype
    # Semantics: entries <= their way's threshold are zeroed, others kept.
    expanded = np.expand_dims(thresholds, axis=1)
    keep = matrix.xors.astype(np.uint64) > expanded
    assert np.array_equal(pruned, np.where(keep, matrix.xors, 0))
    # A threshold beyond the dtype's range prunes everything.
    huge = np.full_like(thresholds, np.uint64(2) ** 40)
    assert not matrix.pruned(huge).any()


# ---------------------------------------------------------------------------
# correlated fault grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.02, 0.1, 0.3, 0.45, 0.49])
@pytest.mark.parametrize("max_terms", [1, 2, 4, 8, 64])
def test_correlated_flip_grid_matches_reference(gamma, max_terms):
    shapes = [(1, 1), (1, 17), (9, 1), (2, 2), (3, 7), (17, 23), (31, 64)]
    for seed, shape in enumerate(shapes):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        fast = correlated_flip_grid(shape, gamma, rng_a, max_terms)
        ref = _reference_correlated_flip_grid(shape, gamma, rng_b, max_terms)
        assert fast.dtype == ref.dtype == np.bool_
        assert np.array_equal(fast, ref), (seed, shape, gamma, max_terms)


def test_correlated_flip_grid_matches_reference_large():
    rng_a = np.random.default_rng(20030622)
    rng_b = np.random.default_rng(20030622)
    fast = correlated_flip_grid((256, 256), 0.3, rng_a)
    ref = _reference_correlated_flip_grid((256, 256), 0.3, rng_b)
    assert np.array_equal(fast, ref)


# ---------------------------------------------------------------------------
# sliding-window baselines
# ---------------------------------------------------------------------------

MEDIAN_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64, np.float32, np.float64]


@pytest.mark.parametrize("dtype", MEDIAN_DTYPES)
@pytest.mark.parametrize("window", [3, 5, 7])
def test_median_smooth_temporal_matches_reference(rng, dtype, window):
    for shape in [(window,), (window + 2, 5), (16, 4, 6)]:
        pixels = (rng.random(shape) * 60000).astype(dtype)
        fast = median.median_smooth_temporal(pixels, window)
        ref = median._reference_median_smooth_temporal(pixels, window)
        assert fast.dtype == ref.dtype
        assert np.array_equal(fast, ref)


@pytest.mark.parametrize("window", [3, 5])
def test_median_smooth_temporal_nan_poisoning(rng, window):
    pixels = rng.random((9, 6)).astype(np.float32)
    pixels[3, 2] = np.nan
    pixels[0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = median._reference_median_smooth_temporal(pixels, window)
    fast = median.median_smooth_temporal(pixels, window)
    assert np.array_equal(fast, ref, equal_nan=True)


@pytest.mark.parametrize("dtype", [np.uint16, np.uint64, np.float32, np.float64])
@pytest.mark.parametrize("window", [3, 5])
def test_median_smooth_spatial_matches_reference(rng, dtype, window):
    for shape in [(window, window), (8, 9), (3, 12, 11)]:
        if min(shape[-2:]) < window:
            continue
        field = (rng.random(shape) * 60000).astype(dtype)
        fast = median.median_smooth_spatial(field, window)
        ref = median._reference_median_smooth_spatial(field, window)
        assert fast.dtype == ref.dtype
        assert np.array_equal(fast, ref)


@pytest.mark.parametrize("dtype", UNSIGNED_DTYPES)
@pytest.mark.parametrize("window", [3, 5])
def test_majority_vote_window_matches_reference(rng, dtype, window):
    for shape in [(window,), (7, 6), (16, 4, 4)]:
        if shape[0] < window:
            continue
        pixels = _random_unsigned(rng, shape, dtype)
        fast = majority.majority_vote_window(pixels, window)
        ref = majority._reference_majority_vote_window(pixels, window)
        assert fast.dtype == ref.dtype
        assert np.array_equal(fast, ref)


@pytest.mark.parametrize("dtype", [np.uint16, np.float32, np.float64])
def test_weighted_window_smooth_matches_reference(rng, dtype):
    # Float accumulation order is part of the contract: the vectorized
    # path must produce bit-identical floats, not merely close ones.
    for shape in [(5,), (8, 6), (16, 3, 5)]:
        pixels = (rng.random(shape) * 1000).astype(dtype)
        for weights in (np.ones(3), np.exp(-np.abs(np.arange(-2, 3)) / 1.0)):
            if shape[0] < len(weights):
                continue
            fast = smoothing._weighted_window_smooth(pixels, weights)
            ref = smoothing._reference_weighted_window_smooth(pixels, weights)
            assert fast.dtype == ref.dtype
            assert np.array_equal(fast, ref)


# ---------------------------------------------------------------------------
# OTIS scan gather/scatter
# ---------------------------------------------------------------------------

SCAN_CONFIGS = [
    scan.ScanConfig(frame_rows=12, frame_cols=20, step_rows=4),
    scan.ScanConfig(frame_rows=9, frame_cols=5, step_rows=3),
    scan.ScanConfig(frame_rows=7, frame_cols=11, step_rows=2),
    scan.ScanConfig(frame_rows=6, frame_cols=4, step_rows=3),
]


def _corrupted_frames(config, scene_rows, seed):
    r = np.random.default_rng(seed)
    scene = (r.random((scene_rows, config.frame_cols)) * 60000).astype(np.uint16)
    frames = scan.scan_scene(scene, config)
    out = []
    for f in frames:
        dn = f.dn.copy()
        mask = r.random(dn.shape) < 0.02
        bits = r.integers(0, 16, size=int(mask.sum()), dtype=np.uint16)
        dn[mask] ^= (np.uint16(1) << bits).astype(np.uint16)
        out.append(scan.Frame(origin_row=f.origin_row, dn=dn))
    return out


@pytest.mark.parametrize("config", SCAN_CONFIGS)
def test_observation_stacks_match_reference(config):
    for seed, scene_rows in enumerate(
        (config.frame_rows, config.frame_rows + 3 * config.step_rows)
    ):
        frames = _corrupted_frames(config, scene_rows, seed)
        n_rows = max(f.origin_row + config.frame_rows for f in frames)
        stack, counts = scan._observation_stacks(frames, config, n_rows)
        ref_stack, ref_counts = scan._reference_observation_stacks(
            frames, config, n_rows
        )
        assert np.array_equal(stack, ref_stack)
        assert np.array_equal(counts, ref_counts)


@pytest.mark.parametrize("config", SCAN_CONFIGS)
def test_cross_frame_preprocess_matches_reference(config):
    if config.revisits < 3:
        pytest.skip("needs >= 3 revisits")
    for seed, scene_rows in enumerate(
        (config.frame_rows, config.frame_rows * 3 + 1)
    ):
        frames = _corrupted_frames(config, scene_rows, seed + 10)
        for min_margin in (1, 2):
            fast = scan.cross_frame_preprocess(frames, config, min_margin)
            ref = scan._reference_cross_frame_preprocess(frames, config, min_margin)
            assert len(fast) == len(ref)
            for fa, fb in zip(fast, ref):
                assert fa.origin_row == fb.origin_row
                assert np.array_equal(fa.dn, fb.dn)


@pytest.mark.parametrize("config", SCAN_CONFIGS)
def test_mosaic_matches_reference(config):
    for seed, scene_rows in enumerate(
        (config.frame_rows, config.frame_rows * 4 + 1)
    ):
        frames = _corrupted_frames(config, scene_rows, seed + 20)
        assert np.array_equal(
            scan.mosaic(frames, config), scan._reference_mosaic(frames, config)
        )


def test_observation_stacks_unobserved_row_error():
    config = scan.ScanConfig(frame_rows=4, frame_cols=3, step_rows=2)
    frames = [scan.Frame(origin_row=6, dn=np.zeros((4, 3), np.uint16))]
    for fn in (scan._observation_stacks, scan._reference_observation_stacks):
        with pytest.raises(Exception, match="ground row 0 never observed"):
            fn(frames, config, 10)


# ---------------------------------------------------------------------------
# kernel tiers (PR 7): every dispatched kernel is byte-identical across
# native / numpy / reference, on every dtype, odd shape and edge value
# ---------------------------------------------------------------------------


def _on_tier(tier, fn, *args, **kwargs):
    with kernel_tier(tier):
        return fn(*args, **kwargs)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("gamma", [0.02, 0.3, 0.45, 0.49])
@pytest.mark.parametrize("max_terms", [1, 2, 8, 64])
def test_correlated_tier_identity(tier, gamma, max_terms):
    for seed, shape in enumerate([(1, 1), (1, 17), (9, 1), (5, 7), (48, 64)]):
        got = _on_tier(
            tier,
            correlated_flip_grid,
            shape,
            gamma,
            np.random.default_rng(seed),
            max_terms,
        )
        want = _on_tier(
            "reference",
            correlated_flip_grid,
            shape,
            gamma,
            np.random.default_rng(seed),
            max_terms,
        )
        assert got.dtype == want.dtype == np.bool_
        assert np.array_equal(got, want), (tier, shape, gamma, max_terms)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("dtype", UNSIGNED_DTYPES)
@pytest.mark.parametrize("shape", [(), (1,), (13,), (5, 9), (3, 4, 7), (0, 3)])
def test_bit_planes_tier_identity(rng, tier, dtype, shape):
    arr = _random_unsigned(rng, shape, dtype)
    planes = _on_tier(tier, bitops.to_bit_planes, arr)
    want = _on_tier("reference", bitops.to_bit_planes, arr)
    assert planes.dtype == want.dtype
    assert np.array_equal(planes, want)
    back = _on_tier(tier, bitops.from_bit_planes, planes, dtype)
    assert back.dtype == np.dtype(dtype)
    assert np.array_equal(back, arr)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("dtype", UNSIGNED_DTYPES)
@pytest.mark.parametrize("upsilon", [2, 3, 4, 7])
def test_voter_combiner_tier_identity(rng, tier, dtype, upsilon):
    for shape in [(upsilon, 9, 5), (upsilon, 4, 0, 3)]:
        voters = _random_unsigned(rng, shape, dtype)
        voters[rng.random(voters.shape) < 0.5] = 0
        for combiner in (voter.VoterMatrix.unanimous, voter.VoterMatrix.grt):
            got = _on_tier(tier, combiner, voters)
            want = _on_tier("reference", combiner, voters)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (tier, combiner.__name__, shape)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("dtype", UNSIGNED_DTYPES)
@pytest.mark.parametrize("window", [3, 5, 15, 17])
def test_majority_window_tier_identity(rng, tier, dtype, window):
    # window 17 exceeds the C bit-sliced counter's capacity, so the
    # native tier must demote that call to NumPy and still match.
    for shape in [(window,), (window + 4, 6), (19, 3, 4)]:
        if shape[0] < window:
            continue
        pixels = _random_unsigned(rng, shape, dtype)
        got = _on_tier(tier, majority.majority_vote_window, pixels, window)
        want = _on_tier("reference", majority.majority_vote_window, pixels, window)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (tier, shape, window)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize(
    "dtype", [np.uint8, np.uint16, np.uint64, np.float32, np.float64]
)
def test_weighted_smooth_tier_identity(rng, tier, dtype):
    # Bit-identical floats, not merely close ones: accumulation order
    # and the absence of FMA contraction are part of the contract.
    # uint64 exercises the accepts-predicate demotion path.
    for shape in [(5,), (8, 6), (16, 3, 5)]:
        pixels = (rng.random(shape) * 1000).astype(dtype)
        for weights in (
            np.ones(3),
            np.exp(-np.abs(np.arange(-2, 3)) / 1.0),
            1.0 / (1.0 + np.arange(-2, 3, dtype=np.float64) ** 2),
        ):
            if shape[0] < len(weights):
                continue
            got = _on_tier(tier, smoothing._weighted_window_smooth, pixels, weights)
            want = _on_tier(
                "reference", smoothing._weighted_window_smooth, pixels, weights
            )
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (tier, shape, len(weights))


@pytest.mark.parametrize("tier", TIER_PARAMS)
def test_smoother_catalogue_tier_identity(rng, tier):
    pixels = _random_unsigned(rng, (12, 7, 5), np.uint16)
    for smooth in (
        lambda p: smoothing.mean_smooth(p, 5),
        lambda p: smoothing.negative_exponential_smooth(p, 5),
        lambda p: smoothing.inverse_square_smooth(p, 5),
        lambda p: smoothing.bisquare_smooth(p, 5),
        lambda p: majority.majority_vote_window(p, 5),
    ):
        got = _on_tier(tier, smooth, pixels)
        want = _on_tier("reference", smooth, pixels)
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Rice encoder: every tier writes the per-sample bit-writer's bytes
# ---------------------------------------------------------------------------

RICE_DTYPES = [np.uint8, np.uint16, np.uint32]


def _first_block_k(blob: bytes, ndim: int) -> int:
    """The 6-bit Rice parameter heading the first block of *blob*."""
    return blob[6 + 4 * ndim] >> 2


def _assert_rice_identity(tier, data):
    got = _on_tier(tier, rice.rice_encode, data)
    assert got == rice._reference_rice_encode(data), (tier, data.dtype, data.shape)
    assert np.array_equal(rice.rice_decode(got), data)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@settings(max_examples=60, deadline=None)
@given(
    data=hnp.arrays(
        dtype=st.sampled_from(RICE_DTYPES),
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=40),
    )
)
def test_rice_encode_matches_reference_property(tier, data):
    _assert_rice_identity(tier, data)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("dtype", RICE_DTYPES)
@pytest.mark.parametrize("n", [1, 31, 32, 33, 95, 2047, 2048, 2049, 64 * 32 * 3 + 17])
def test_rice_encode_tier_identity_lengths(rng, tier, dtype, n):
    # 64 * 32 samples is one NumPy-tier pass; the longer lengths span
    # several passes and end on a partial block.
    assert rice._BLOCKS_PER_PASS * rice.BLOCK_SIZE == 2048
    full_range = _random_unsigned(rng, (n,), dtype)
    walk = np.abs(np.cumsum(rng.integers(-40, 41, size=n))).astype(dtype)
    for data in (full_range, walk):
        _assert_rice_identity(tier, data)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("dtype", RICE_DTYPES)
def test_rice_encode_tier_identity_escapes_and_extreme_k(tier, dtype):
    top = int(np.iinfo(dtype).max)
    nbits = np.dtype(dtype).itemsize * 8
    # Flat data with isolated full-scale spikes: k = 0 blocks whose
    # spike edges escape to the raw field.
    spiky = np.zeros(3000, dtype=dtype)
    spiky[[5, 700, 2047, 2048, 2999]] = top
    spiky[[100, 1500]] = top // 2 + 5
    # Alternating full-scale samples: the largest k any block takes.
    alternating = np.array([0, top] * 40 + [1], dtype=dtype)
    zeros = np.zeros(77, dtype=dtype)
    for data, k in ((spiky, 0), (alternating, nbits), (zeros, 0)):
        _assert_rice_identity(tier, data)
        assert _first_block_k(rice.rice_encode(data), 1) == k


def test_rice_encode_peak_memory_bounded():
    frame = np.random.default_rng(7).integers(0, 2**32, size=(128, 128), dtype=np.uint32)
    with kernel_tier("numpy"):
        rice.rice_encode(frame)
        tracemalloc.start()
        try:
            rice.rice_encode(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 4 * 2**20, peak
