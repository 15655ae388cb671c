"""Property tests: every vectorized kernel is bit-identical to its
``_reference_*`` oracle.

The hot-path kernels (correlated flip grid, voter combiners, bitops,
sliding-window baselines, the Rice encoder, the OTIS band) are
vectorized NumPy with the explicit contract that outputs match the
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
from repro.config import NGSTConfig, OTISBounds, OTISConfig
from repro.core import algo_ngst, algo_otis, bitops, voter
from repro.exceptions import ConfigurationError
from repro.faults.correlated import (
    _reference_correlated_flip_grid,
    correlated_flip_grid,
)
from repro.native import dispatch, kernel_tier, native_available
from repro.ngst import rice

UNSIGNED_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64]

#: Tier parametrization for the dispatched kernels.  The native column
#: runs the default ``auto`` tier with the compiled extension loaded:
#: C for the correlated scan, NumPy for every kernel without a C
#: implementation.  It skips cleanly when no extension can be built (no
#: compiler / no cffi).
TIER_PARAMS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("reference", id="reference"),
    pytest.param(
        "auto",
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
# Algo_NGST: run_fixed and every Λ-sweep entry match the one-Λ oracle
# ---------------------------------------------------------------------------

#: Λ sequences for the sweep: the smallest positive Λ, Λ = 100, repeats
#: and an unsorted order.  On N <= 5 every Λ clips Φ to 1.
NGST_LAMBDA_SWEEPS = [
    (100.0,),
    (1e-9, 0.5, 20.0, 50.0, 80.0, 99.5, 100.0),
    (80.0, 10.0, 100.0, 10.0, 55.5, 80.0),
]


def _ngst_stack(rng, dtype, shape):
    """A noisy walk in *dtype* with random single-bit flips.  uint64
    stacks keep their top bit clear: a 2**63 XOR rounds up past the
    dtype and both paths refuse it as a non-power-of-two threshold."""
    nbits = np.iinfo(dtype).bits
    top = nbits - 1 if dtype == np.uint64 else nbits
    base = 1 << (nbits - 2)
    walk = base + np.cumsum(rng.integers(-8, 9, size=shape), axis=0)
    stack = walk.astype(dtype)
    hit = rng.random(shape) < 0.05
    shifts = rng.integers(0, top, int(hit.sum())).astype(dtype)
    stack[hit] ^= np.left_shift(dtype(1), shifts)
    return stack


def _assert_ngst_identity(got, want, context):
    for field in ("corrected", "correction_vectors"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, (field, context)
        assert a.tobytes() == b.tobytes(), (field, context)
    for mask in ("msb_mask", "lsb_mask"):
        a = np.asarray(getattr(got.windows, mask))
        b = np.asarray(getattr(want.windows, mask))
        assert a.dtype == b.dtype and a.shape == b.shape, (mask, context)
        assert np.array_equal(a, b), (mask, context)
    assert got.windows.nbits == want.windows.nbits
    assert got.n_pixels_corrected == want.n_pixels_corrected, context
    assert got.n_bits_corrected == want.n_bits_corrected, context


def _assert_sweep_identity(tier, stack, upsilon, per_coordinate, lambdas):
    base = NGSTConfig(upsilon=upsilon, per_coordinate_thresholds=per_coordinate)
    swept = _on_tier(tier, algo_ngst.AlgoNGST(base).sweep, stack, lambdas)
    assert len(swept) == len(lambdas)
    for lam, got in zip(lambdas, swept):
        cfg = NGSTConfig(
            upsilon=upsilon, sensitivity=lam, per_coordinate_thresholds=per_coordinate
        )
        want = _on_tier("reference", algo_ngst._reference_run_fixed, stack, cfg)
        context = (tier, stack.dtype, stack.shape, upsilon, per_coordinate, lam)
        _assert_ngst_identity(got, want, context)
        _assert_ngst_identity(
            _on_tier(tier, algo_ngst.run_fixed, stack, cfg), want, context
        )


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("dtype", UNSIGNED_DTYPES)
@pytest.mark.parametrize("upsilon", [2, 4, 6])
def test_ngst_sweep_matches_reference(tier, dtype, upsilon):
    rng = np.random.default_rng(100 * upsilon + np.iinfo(dtype).bits)
    for shape in [(4,), (17,), (5, 7), (24, 6), (17, 4, 3), (16, 5, 3)]:
        stack = _ngst_stack(rng, dtype, shape)
        for per_coordinate in (True, False):
            for lambdas in NGST_LAMBDA_SWEEPS:
                _assert_sweep_identity(tier, stack, upsilon, per_coordinate, lambdas)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@settings(max_examples=40, deadline=None)
@given(
    stack=hnp.arrays(
        dtype=st.sampled_from([np.uint8, np.uint16]),
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=4, max_side=12),
    ),
    upsilon=st.sampled_from([2, 4, 6]),
    per_coordinate=st.booleans(),
    lambdas=st.lists(
        st.floats(0, 100, exclude_min=True), min_size=1, max_size=5
    ),
)
def test_ngst_sweep_matches_reference_property(
    tier, stack, upsilon, per_coordinate, lambdas
):
    _assert_sweep_identity(tier, stack, upsilon, per_coordinate, lambdas)


def test_voter_thresholds_match_reference(rng):
    for shape in [(4,), (17,), (9, 5), (17, 4, 3)]:
        matrix = voter.VoterMatrix(_ngst_stack(rng, np.uint16, shape), 4)
        for per_coordinate in (True, False):
            lambdas = NGST_LAMBDA_SWEEPS[1]
            swept = matrix.threshold_sweep(lambdas, per_coordinate)
            for lam, got in zip(lambdas, swept):
                want = voter._reference_thresholds(matrix, lam, per_coordinate)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (shape, per_coordinate, lam)
                assert np.array_equal(
                    matrix.thresholds(lam, per_coordinate), want
                )


@pytest.mark.parametrize("sensitivity", [0.0, -1.0, 100.5, float("nan")])
def test_ngst_sweep_rejects_sensitivity_like_the_config(rng, sensitivity):
    stack = _ngst_stack(rng, np.uint16, (16, 3))
    with pytest.raises(ConfigurationError) as want:
        algo_ngst.AlgoNGST(NGSTConfig(sensitivity=sensitivity))
    with pytest.raises(ConfigurationError) as got:
        algo_ngst.AlgoNGST().sweep(stack, [50.0, sensitivity])
    assert str(got.value) == str(want.value)


def test_ngst_sweep_refuses_selective(rng):
    stack = _ngst_stack(rng, np.uint16, (16, 6, 6))
    algo = algo_ngst.AlgoNGST(NGSTConfig(strategy="selective", margin=1))
    with pytest.raises(ConfigurationError) as err:
        algo.sweep(stack, [50.0])
    assert "\n" not in str(err.value)


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
# kernel tiers: every dispatched kernel is byte-identical across
# native / numpy / reference, on every dtype, odd shape and edge value
# ---------------------------------------------------------------------------


def _on_tier(tier, fn, *args, **kwargs):
    with kernel_tier(tier):
        return fn(*args, **kwargs)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("gamma", [0.02, 0.3, 0.45, 0.49])
@pytest.mark.parametrize("max_terms", [1, 2, 8, 64])
def test_correlated_tier_identity(tier, gamma, max_terms):
    if tier == "auto":
        with kernel_tier(tier):
            assert dispatch.resolve("correlated_flip_grid") == "native"
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
@pytest.mark.parametrize("gamma", [0.0, 0.1])
@pytest.mark.parametrize("max_terms", [0, -3])
def test_correlated_rejects_empty_run_table(tier, gamma, max_terms):
    # An empty Eq. (2) table once reached the C scan, which read
    # table[0] out of bounds; every tier must refuse it up front.
    rng = np.random.default_rng(0)
    with kernel_tier(tier), pytest.raises(ConfigurationError, match="max_terms"):
        correlated_flip_grid((4, 8), gamma, rng, max_terms)


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
    # is part of the contract.
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


# ---------------------------------------------------------------------------
# Algo_OTIS band kernel: every tier matches the per-offset np.pad routine
# ---------------------------------------------------------------------------

OTIS_TILES = [0, 3, 5, 7, 8, 16, 64]


def otis_field(rng, dtype, shape, flip_rate=0.02, cluster=None):
    """A smooth radiance field stored as *dtype*, with random bit flips
    and, optionally, a 3x3 cluster set to *cluster*."""
    values = 140.0 + np.cumsum(rng.normal(0.0, 2.0, shape), axis=-1)
    if dtype == np.uint16:
        field = np.clip(np.rint(values / 0.004), 0, 65535).astype(np.uint16)
        words = field
    else:
        field = values.astype(np.float32)
        words = field.view(np.uint32)
    hit = rng.random(shape) < flip_rate
    shifts = rng.integers(0, words.dtype.itemsize * 8, int(hit.sum()))
    words[hit] ^= np.left_shift(words.dtype.type(1), shifts.astype(words.dtype))
    if cluster is not None:
        r = int(rng.integers(0, shape[-2] - 2))
        c = int(rng.integers(0, shape[-1] - 2))
        field[..., r : r + 3, c : c + 3] = cluster
    return field


#: A Λ sweep with the bounds-only Λ = 0, both ends, and repeats.
OTIS_SWEEP = (60.0, 0.0, 20.0, 100.0, 60.0, 45.5)


def _assert_otis_identity(tier, config, field, lambdas=None):
    """*tier* matches the reference on a plain call, or on a sweep of
    *lambdas* when given."""
    algo = algo_otis.AlgoOTIS(config)
    if lambdas is None:
        run = algo
    else:
        def run(field):
            return algo.sweep(field, lambdas)
    got = _on_tier(tier, run, field)
    want = _on_tier("reference", run, field)
    if lambdas is None:
        got, want = [got], [want]
    assert len(got) == len(want)
    for got, want in zip(got, want):
        assert_same_otis_result(got, want, (tier, config))


def assert_same_otis_result(got, want, context=None):
    """Two ``OTISResult``s agree field for field, byte for byte."""
    assert got.corrected.dtype == want.corrected.dtype
    assert got.corrected.shape == want.corrected.shape
    assert got.corrected.tobytes() == want.corrected.tobytes(), context
    assert (got.n_bounds_repairs, got.n_bit_corrections, got.n_trend_exemptions) == (
        want.n_bounds_repairs,
        want.n_bit_corrections,
        want.n_trend_exemptions,
    )
    assert got.windows.nbits == want.windows.nbits
    for mask in ("msb_mask", "lsb_mask"):
        a = np.asarray(getattr(got.windows, mask))
        b = np.asarray(getattr(want.windows, mask))
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b), (context, mask)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("dtype", [np.uint16, np.float32])
@pytest.mark.parametrize("tile", OTIS_TILES)
@pytest.mark.parametrize("upsilon", [4, 8])
def test_otis_band_tier_identity(tier, dtype, tile, upsilon):
    # 24x24 at tile 16 is the report's non-dividing case: one whole
    # tile, a right edge, a bottom edge and a corner.
    rng = np.random.default_rng(1000 * tile + upsilon)
    for shape in [(24, 24), (32, 32), (9, 20), (3, 3)]:
        config = OTISConfig(
            upsilon=upsilon,
            tile=tile,
            sensitivity=float(rng.choice([0.0, 20.0, 60.0, 100.0])),
            iterations=int(rng.integers(1, 4)),
            trend_window=int(rng.integers(1, 3)),
        )
        cluster = 65000 if dtype == np.uint16 else np.nan
        field = otis_field(rng, dtype, shape, cluster=cluster)
        _assert_otis_identity(tier, config, field)
        _assert_otis_identity(tier, config, field, OTIS_SWEEP)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("cluster", [np.nan, np.inf, -np.inf, 500.0, -0.0])
@pytest.mark.parametrize("sensitivity", [0.0, 60.0])
def test_otis_band_tier_identity_nonfinite(tier, cluster, sensitivity):
    # NaN and +-inf pixels and out-of-bounds clusters go to the bounds
    # screen; a 3x3 cluster leaves its centre an all-invalid ring, and a
    # negative lower bound keeps -0.0 in bounds.
    rng = np.random.default_rng(7)
    for bounds in (OTISBounds(), OTISBounds(lower=-50.0, upper=150.0)):
        config = OTISConfig(sensitivity=sensitivity, bounds=bounds, iterations=3)
        field = otis_field(rng, np.float32, (24, 24), cluster=cluster)
        field[rng.random(field.shape) < 0.03] = cluster
        for value in (np.nan, np.inf, -np.inf, -0.0):
            field[tuple(rng.integers(0, 24, 2))] = value
        _assert_otis_identity(tier, config, field)
        _assert_otis_identity(tier, config, field, OTIS_SWEEP)
    everything = np.full((6, 7), cluster, dtype=np.float32)
    _assert_otis_identity(tier, OTISConfig(sensitivity=sensitivity), everything)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("dtype", [np.uint16, np.float32])
def test_otis_band_tier_identity_options(tier, dtype):
    # Tight bounds make voter corrections land out of bounds, so the
    # median repair runs with and without the trend test's ring built.
    rng = np.random.default_rng(11)
    for bounds in (OTISBounds(), OTISBounds(lower=120.0, upper=160.0)):
        for trend_exemption in (True, False):
            for trend_window in (1, 2):
                for iterations in (1, 2, 3):
                    config = OTISConfig(
                        bounds=bounds,
                        trend_exemption=trend_exemption,
                        trend_window=trend_window,
                        iterations=iterations,
                        sensitivity=float(rng.uniform(0, 100)),
                    )
                    field = otis_field(rng, dtype, (24, 24), flip_rate=0.05)
                    _assert_otis_identity(tier, config, field)
                    _assert_otis_identity(tier, config, field, OTIS_SWEEP)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("dtype", [np.uint16, np.float32])
def test_otis_band_tier_identity_cube(tier, dtype):
    rng = np.random.default_rng(13)
    for shape in [(1, 16, 16), (3, 24, 24), (6, 5, 9)]:
        cluster = 65000 if dtype == np.uint16 else np.nan
        field = otis_field(rng, dtype, shape, cluster=cluster)
        _assert_otis_identity(tier, OTISConfig(), field)
        _assert_otis_identity(tier, OTISConfig(), field, OTIS_SWEEP)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@settings(max_examples=40, deadline=None)
@given(
    field=hnp.arrays(
        dtype=np.uint16,
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=3, max_side=40),
    ),
    tile=st.sampled_from(OTIS_TILES),
    upsilon=st.sampled_from([4, 8]),
    sensitivity=st.floats(0, 100),
    lambdas=st.lists(st.floats(0, 100), min_size=1, max_size=5),
)
def test_otis_band_tier_identity_property(
    tier, field, tile, upsilon, sensitivity, lambdas
):
    config = OTISConfig(upsilon=upsilon, tile=tile, sensitivity=sensitivity)
    _assert_otis_identity(tier, config, field)
    _assert_otis_identity(tier, config, field, lambdas)


@pytest.mark.parametrize("tier", TIER_PARAMS)
@pytest.mark.parametrize("bad", [-0.5, 101.0, float("nan")])
def test_otis_sweep_refuses_out_of_range_lambda(tier, bad, monkeypatch):
    # The range check runs before the kernel on any tier, and before
    # the field is even looked at.
    ran = []
    monkeypatch.setattr(dispatch, "call", lambda *a: ran.append(a))
    sweep = algo_otis.AlgoOTIS(OTISConfig()).sweep
    field = otis_field(np.random.default_rng(3), np.uint16, (16, 16))
    for field in (field, np.zeros(3)):
        with pytest.raises(ConfigurationError, match="sensitivity"):
            _on_tier(tier, sweep, field, (20.0, bad))
    assert ran == []


@pytest.mark.parametrize("tile", OTIS_TILES[1:])
def test_tile_thresholds_match_reference(rng, tile):
    for shape in [(4, 24, 24), (8, 32, 32), (4, 9, 20), (4, 3, 3), (8, 17, 5)]:
        voters = _random_unsigned(rng, shape, np.uint16)
        _, rows, cols = shape
        fractions = (0.2, 0.5, 0.8, 0.5)
        grids = algo_otis._tile_thresholds(voters, tile, fractions)
        assert grids.shape[0] == len(fractions)
        for fraction, grid in zip(fractions, grids):
            if grid.ndim > 1:
                grid = algo_otis._expand_tiles(grid, tile, rows, cols)
            want = algo_otis._reference_way_thresholds(voters, tile, fraction)
            assert grid.dtype == want.dtype
            assert np.array_equal(grid, want), (shape, tile, fraction)


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.float64])
def test_reflect_pad_matches_np_pad(rng, dtype):
    for shape in [(2, 2), (2, 7), (5, 2), (24, 24), (3, 40)]:
        field = (rng.random(shape) * 60000).astype(dtype)
        padded = algo_otis._reflect_pad(field)
        assert padded.dtype == field.dtype
        assert np.array_equal(padded, np.pad(field, 1, mode="reflect"))


def _median_fields(rng):
    """Fields whose 8-rings hold NaNs, +-inf, both infinities, signed
    zeros, an all-NaN neighbourhood and nothing finite at all."""
    base = rng.normal(100.0, 20.0, (12, 13))
    nan_rings = base.copy()
    nan_rings[rng.random(base.shape) < 0.1] = np.nan
    infs = base.copy()
    infs[2, 3], infs[7, 8], infs[8, 8] = np.inf, -np.inf, np.inf
    infs[4, 4], infs[4, 6] = np.inf, -np.inf  # one ring, both signs
    all_nan = base.copy()
    all_nan[3:6, 3:6] = np.nan
    all_nan[0:2, 0:2] = np.nan  # reflected corner ring
    zeros = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(9, 9))
    # The centre's middle ranks are -inf and +inf: a NaN median.
    split = np.array([[-np.inf] * 3, [-np.inf, 0.0, np.inf], [np.inf] * 3])
    nothing_finite = np.full((4, 5), np.nan)
    nothing_finite[1, 1] = np.inf
    return [base, nan_rings, infs, all_nan, zeros, split, nothing_finite]


def test_spatial_median_matches_reference(rng):
    # np.median's NaN rule: a ring holding a NaN has a NaN median.
    fields = _median_fields(rng) + [_random_unsigned(rng, (6, 9), np.uint16)]
    for field in fields:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
            got = algo_otis.spatial_median(field)
            want = algo_otis._reference_spatial_median(field)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    assert np.isnan(algo_otis.spatial_median(fields[1])).any()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert np.isnan(algo_otis.spatial_median(fields[5])[1, 1])


def test_nan_spatial_median_matches_reference(rng):
    # All-NaN rings fall back to the global median of the finite
    # values, and to 0.0 when nothing is finite.
    for field in _median_fields(rng):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
            got = algo_otis._nan_spatial_median(field)
            want = algo_otis._reference_nan_spatial_median(field)
        assert got.tobytes() == want.tobytes()
    assert np.all(algo_otis._nan_spatial_median(np.full((3, 3), np.nan)) == 0.0)
