"""Tests for the §2.2.2 uncorrelated fault model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import UncorrelatedFaultConfig
from repro.core import bitops
from repro.exceptions import ConfigurationError
from repro.faults.profile import GammaSineProfile, GammaStepProfile
from repro.faults.uncorrelated import (
    _DRAW_BUDGET,
    UncorrelatedFaultModel,
    _reference_uncorrelated_flip_mask,
    uncorrelated_flip_mask,
)
from repro.stream import FrameSeeder, frame_rng


class TestFlipMask:
    def test_zero_probability_no_flips(self, rng):
        mask = uncorrelated_flip_mask((100,), 16, 0.0, rng)
        assert not mask.any()

    def test_probability_one_flips_everything(self, rng):
        mask = uncorrelated_flip_mask((10,), 16, 1.0, rng)
        assert np.all(mask == 0xFFFF)

    def test_flip_rate_statistics(self, rng):
        gamma0 = 0.05
        mask = uncorrelated_flip_mask((200, 200), 16, gamma0, rng)
        rate = np.bitwise_count(mask).sum() / (200 * 200 * 16)
        assert rate == pytest.approx(gamma0, rel=0.05)

    def test_mask_within_word_width(self, rng):
        mask = uncorrelated_flip_mask((1000,), 12, 0.5, rng)
        assert np.all(mask < (1 << 12))

    def test_rejects_bad_probability(self, rng):
        with pytest.raises(ConfigurationError):
            uncorrelated_flip_mask((4,), 16, 1.5, rng)

    def test_rejects_bad_width(self, rng):
        with pytest.raises(ConfigurationError):
            uncorrelated_flip_mask((4,), 65, 0.1, rng)

    def test_deterministic_under_seed(self):
        a = uncorrelated_flip_mask((50,), 16, 0.1, np.random.default_rng(9))
        b = uncorrelated_flip_mask((50,), 16, 0.1, np.random.default_rng(9))
        assert np.array_equal(a, b)


def _assert_matches_reference(shape, nbits, gamma0, seed):
    fast_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    fast = uncorrelated_flip_mask(shape, nbits, gamma0, fast_rng)
    ref = _reference_uncorrelated_flip_mask(shape, nbits, gamma0, ref_rng)
    assert fast.dtype == ref.dtype == np.uint64
    assert fast.shape == ref.shape == tuple(shape)
    assert fast.tobytes() == ref.tobytes(), (shape, nbits, gamma0)
    # Same Generator state afterwards: the next draw of the stream agrees.
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
    assert fast_rng.random() == ref_rng.random()


class TestBlockedDrawMatchesReference:
    """The block-of-planes draw is byte-identical to one draw per plane."""

    @pytest.mark.parametrize(
        "shape",
        [
            (),
            (0,),
            (64,),
            (8, 8),
            (3, 5),
            (_DRAW_BUDGET // 7, 7),
            (_DRAW_BUDGET // 2 - 1,),
            (_DRAW_BUDGET // 2 + 1,),
            (_DRAW_BUDGET - 1,),
            (_DRAW_BUDGET,),
            (_DRAW_BUDGET + 1,),
            (64, 16, 16),
        ],
    )
    def test_grid(self, shape):
        for nbits in (1, 7, 12, 16, 32, 64):
            for gamma0 in (0.0, 1e-6, 0.01, 0.5, 1.0):
                _assert_matches_reference(shape, nbits, gamma0, seed=nbits)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.one_of(
            st.lists(st.integers(0, 12), max_size=3).map(tuple),
            st.integers(_DRAW_BUDGET // 16 - 3, _DRAW_BUDGET // 16 + 3).map(
                lambda n: (n, 16)
            ),
        ),
        nbits=st.integers(1, 64),
        gamma0=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, shape, nbits, gamma0, seed):
        _assert_matches_reference(shape, nbits, gamma0, seed)

    @pytest.mark.parametrize("shape", [(), (8, 8), (64, 16, 16)])
    def test_float32_corrupt_path(self, shape):
        data = (
            np.random.default_rng(5).standard_normal(shape).astype(np.float32)
            * np.float32(300)
        )
        corrupted, mask = UncorrelatedFaultModel(0.05).corrupt(
            data, np.random.default_rng(8)
        )
        bits = bitops.float32_to_bits(np.ascontiguousarray(data))
        ref_mask = _reference_uncorrelated_flip_mask(
            bits.shape, 32, 0.05, np.random.default_rng(8)
        ).astype(np.uint32)
        assert mask.tobytes() == ref_mask.tobytes()
        expected = bitops.bits_to_float32(np.bitwise_xor(bits, ref_mask))
        assert np.asarray(corrupted).tobytes() == np.asarray(expected).tobytes()


class TestUncorrelatedFaultModel:
    def test_accepts_float_probability_shorthand(self):
        model = UncorrelatedFaultModel(0.25)
        assert model.config.gamma0 == 0.25

    def test_accepts_config(self):
        model = UncorrelatedFaultModel(UncorrelatedFaultConfig(0.1))
        assert model.config.gamma0 == 0.1

    def test_corrupt_uint16(self, walk_stack, rng):
        corrupted, mask = UncorrelatedFaultModel(0.1).corrupt(walk_stack, rng)
        assert corrupted.shape == walk_stack.shape
        assert np.array_equal(corrupted ^ mask, walk_stack)

    def test_corrupt_copy_not_inplace(self, walk_stack, rng):
        snapshot = walk_stack.copy()
        UncorrelatedFaultModel(0.2).corrupt(walk_stack, rng)
        assert np.array_equal(walk_stack, snapshot)

    def test_corrupt_float32_via_bits(self, rng):
        data = np.full((16, 16), 1.5, dtype=np.float32)
        corrupted, mask = UncorrelatedFaultModel(0.05).corrupt(data, rng)
        assert corrupted.dtype == np.float32
        assert mask.dtype == np.uint32
        bits = data.view(np.uint32) ^ mask
        assert np.array_equal(bits.view(np.float32), corrupted, equal_nan=True)

    def test_zero_gamma_identity(self, walk_stack, rng):
        corrupted, mask = UncorrelatedFaultModel(0.0).corrupt(walk_stack, rng)
        assert np.array_equal(corrupted, walk_stack)
        assert not mask.any()

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_double_corrupt_with_same_mask_restores(self, gamma0):
        data = np.arange(64, dtype=np.uint16)
        rng = np.random.default_rng(3)
        corrupted, mask = UncorrelatedFaultModel(gamma0).corrupt(data, rng)
        assert np.array_equal(corrupted ^ mask, data)


def _chunk_frames(dtype, shape, k, seed=0):
    rng = np.random.default_rng(seed)
    if np.dtype(dtype) == np.float32:
        return (rng.standard_normal((k,) + shape) * 300).astype(np.float32)
    info = np.iinfo(dtype)
    return rng.integers(0, info.max, (k,) + shape, dtype=dtype, endpoint=True)


def _per_frame(frames, gammas, seed, start):
    """Frame-at-a-time corruption with each frame's own ``frame_rng`` and
    the one-draw-per-plane reference mask, as ``corrupt`` defines it."""
    outs, masks = [], []
    for j, gamma in enumerate(gammas):
        frame = np.asarray(frames[j, ...])
        words = frame.view(np.uint32) if frame.dtype == np.float32 else frame
        mask = _reference_uncorrelated_flip_mask(
            words.shape, words.dtype.itemsize * 8, gamma, frame_rng(seed, start + j)
        ).astype(words.dtype)
        outs.append((words ^ mask).view(frame.dtype))
        masks.append(mask)
    if not outs:
        return frames[:0], None
    return np.stack(outs), np.stack(masks)


def _assert_chunk_matches(frames, gammas, seed=5, start=2**32 - 4, column=True):
    model = UncorrelatedFaultModel(gammas[0] if gammas else 0.0)
    rngs = FrameSeeder(seed).generators(start, frames.shape[0])
    out, masks = model.corrupt_chunk(frames, rngs, list(gammas) if column else None)
    expected, expected_masks = _per_frame(frames, gammas, seed, start)
    assert out.dtype == frames.dtype and out.shape == frames.shape
    assert out.tobytes() == expected.tobytes()
    if expected_masks is not None:
        assert masks.dtype == expected_masks.dtype
        assert masks.tobytes() == expected_masks.tobytes()


class TestChunkMatchesPerFrame:
    """``corrupt_chunk`` with a FrameSeeder equals per-frame corruption
    with ``frame_rng`` and the reference mask: masks, corrupted words
    and their dtypes.  The chunk starts just below 2³², so the seeder's
    two-word spawn keys and the chunk's shared draw buffer are checked
    together.  (``corrupt`` itself runs a chunk of one frame, so the
    per-plane reference is the independent side.)"""

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.uint16, np.uint32, np.uint64, np.float32]
    )
    @pytest.mark.parametrize("gamma", [0.0, 1e-6, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize(
        "shape", [(), (64,), (8, 8), (_DRAW_BUDGET + 1,)], ids=["0d", "64", "8x8", "big"]
    )
    def test_static_gamma(self, dtype, gamma, shape):
        k = 3 if shape == (_DRAW_BUDGET + 1,) else 9
        frames = _chunk_frames(dtype, shape, k)
        _assert_chunk_matches(frames, [gamma] * k, column=False)

    @pytest.mark.parametrize(
        "profile",
        [
            GammaStepProfile(base=0.0, elevated=0.3, period=7, duty=0.5),
            GammaSineProfile(base=0.01, amplitude=0.02, period=11),
        ],
        ids=["step", "sine"],
    )
    @pytest.mark.parametrize("dtype", [np.uint16, np.float32])
    @pytest.mark.parametrize("shape", [(), (64,), (300,)])
    def test_gamma_changes_inside_the_chunk(self, profile, dtype, shape):
        start = 2**32 - 20
        gammas = [profile.gamma_at(start + j) for j in range(40)]
        assert len(set(gammas)) >= 2 and 0.0 in gammas
        frames = _chunk_frames(dtype, shape, 40, seed=3)
        _assert_chunk_matches(frames, gammas, start=start)

    def test_many_frames_span_several_draw_blocks(self):
        # (64,) uint16 frames: 1,024 draws each, 64 frames per block.
        frames = _chunk_frames(np.uint16, (64,), 200)
        gammas = [0.02 * (j % 5) for j in range(200)]
        _assert_chunk_matches(frames, gammas, start=0)

    def test_empty_chunk(self):
        out, masks = UncorrelatedFaultModel(0.1).corrupt_chunk(
            np.zeros((0, 8), np.uint16), iter(())
        )
        assert out.shape == masks.shape == (0, 8)

    def test_a_zero_gamma_frame_draws_nothing(self):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        UncorrelatedFaultModel(0.0).corrupt_chunk(np.zeros((1, 64), np.uint16), [rng])
        assert rng.bit_generator.state == before

    def test_bad_gamma_column_is_refused(self):
        model = UncorrelatedFaultModel(0.1)
        frames = np.zeros((2, 4), np.uint16)
        with pytest.raises(ConfigurationError):
            model.corrupt_chunk(frames, iter([]), [0.1, 1.5])
        with pytest.raises(ConfigurationError):
            model.corrupt_chunk(frames, iter([]), [0.1])
