"""The stream's per-chunk loops against per-frame references.

``StreamingPsi.update``, ``SyntheticWalkSource`` and ``InjectStage``
each do their array work once per chunk.  The references below are the
frame-at-a-time bodies they replaced; every result must match them bit
for bit, however the stream is chunked.
"""

import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NGSTDatasetConfig
from repro.core import bitops
from repro.data.ngst import U16_MAX
from repro.faults import CorrelatedFaultModel, UncorrelatedFaultModel
from repro.faults.profile import GammaSineProfile, GammaStepProfile
from repro.faults.uncorrelated import _reference_uncorrelated_flip_mask
from repro.stream import InjectStage, StreamingPsi, SyntheticWalkSource
from repro.stream.pipeline import PSI_CAP, PSI_FLOOR
from repro.stream.source import frame_rng


def _reference_psi_state(pairs) -> dict:
    """Frame-at-a-time StreamingPsi over ``(observed, pristine)`` frames."""
    total = comp = mean = m2 = 0.0
    count = n_frames = 0
    for obs_frame, ref_frame in pairs:
        obs = np.asarray(obs_frame).astype(np.float64)
        ref = np.asarray(ref_frame).astype(np.float64)
        denom = np.maximum(np.abs(ref), PSI_FLOOR)
        with np.errstate(over="ignore", invalid="ignore"):
            err = np.abs(obs - ref) / denom
        err = np.where(np.isfinite(err), np.minimum(err, PSI_CAP), PSI_CAP)
        frame_sum = float(err.sum())
        y = frame_sum - comp
        t = total + y
        comp = (t - total) - y
        total = t
        count += err.size
        n_frames += 1
        frame_mean = frame_sum / err.size if err.size else 0.0
        delta = frame_mean - mean
        mean += delta / n_frames
        m2 += delta * (frame_mean - mean)
    return {
        "sum": total, "comp": comp, "count": count, "n_frames": n_frames,
        "mean": mean, "m2": m2, "floor": PSI_FLOOR, "cap": PSI_CAP,
    }


def _chunks(n, sizes):
    """Split ``range(n)`` into consecutive slices of *sizes* (cycled),
    empty slices included."""
    bounds, lo, i = [], 0, 0
    while lo < n:
        size = sizes[i % len(sizes)]
        bounds.append(slice(lo, min(lo + size, n)))
        lo += size
        i += 1
    return bounds


def _float_frames(rng, n, coord_shape):
    frames = rng.standard_normal((n,) + coord_shape) * 10.0 ** rng.uniform(
        -12, 12, (n,) + coord_shape
    )
    flat = frames.reshape(-1)
    if flat.size >= 4:
        picks = rng.choice(flat.size, size=4, replace=False)
        flat[picks] = [np.nan, np.inf, -np.inf, 0.0]
    return frames


class TestStreamingPsiChunks:
    @settings(max_examples=40, deadline=None)
    @given(
        coord_shape=st.sampled_from([(), (1,), (7,), (64,), (3, 5), (12, 12)]),
        sizes=st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(any),
        n=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    def test_any_chunking_matches_per_frame(self, coord_shape, sizes, n, seed):
        rng = np.random.default_rng(seed)
        pristine = _float_frames(rng, n, coord_shape)
        observed = _float_frames(rng, n, coord_shape)
        acc = StreamingPsi()
        for part in _chunks(n, sizes):
            acc.update(observed[part], pristine[part])
        acc.update(observed[:0], pristine[:0])
        assert acc.state_dict() == _reference_psi_state(zip(observed, pristine))

    @pytest.mark.parametrize("coord_shape", [(), (64,), (8, 8), (0,)])
    def test_integer_frames_match_per_frame(self, coord_shape):
        rng = np.random.default_rng(4)
        pristine = rng.integers(0, 2**16, (50,) + coord_shape).astype(np.uint16)
        observed = pristine ^ rng.integers(0, 2**16, pristine.shape).astype(np.uint16)
        for sizes in ([1], [3, 0, 7], [50]):
            acc = StreamingPsi()
            for part in _chunks(50, sizes):
                acc.update(observed[part], pristine[part])
            assert acc.state_dict() == _reference_psi_state(zip(observed, pristine))


def _reference_walk(shape, config, seed, n):
    """Frame-at-a-time Eq. (1) walk: frames and the final walk state."""
    frames, walk = [], None
    for i in range(n):
        if i == 0:
            walk = np.full(shape, float(config.initial_value), dtype=np.float64)
        else:
            walk = walk + frame_rng(seed, i).normal(0.0, config.sigma, shape)
        frames.append(
            np.clip(np.rint(walk), config.background_floor, U16_MAX).astype(np.uint16)
        )
    return np.stack(frames), walk


class TestWalkSourceChunks:
    @pytest.mark.parametrize("shape", [(), (6,), (4, 3)])
    @pytest.mark.parametrize("sizes", [[1], [2, 5, 1], [16], [70]])
    def test_resumed_at_every_boundary_matches_one_shot(self, shape, sizes):
        config = NGSTDatasetConfig(sigma=40.0, initial_value=300)
        n = 60
        expected, walk = _reference_walk(shape, config, 7, n)
        one_shot = SyntheticWalkSource(shape, config, seed=7, n_frames=n).read(n)
        assert one_shot.tobytes() == expected.tobytes()

        pieces, state = [], None
        for size in sizes * n:
            source = SyntheticWalkSource(shape, config, seed=7, n_frames=n)
            if state is not None:
                source.load_state(json.loads(json.dumps(state)))
            chunk = source.read(size)
            if chunk.shape[0] == 0:
                break
            pieces.append(chunk)
            state = source.state_dict()
        assert np.concatenate(pieces).tobytes() == expected.tobytes()
        assert source._walk.tobytes() == walk.tobytes()


def _reference_corrupt(model, frame, rng):
    """``model.corrupt``, with an uncorrelated model's mask taken from
    the one-draw-per-plane reference rather than the chunk code the
    stage under test shares with ``corrupt``."""
    if type(model) is not UncorrelatedFaultModel:
        return model.corrupt(frame, rng)
    words = frame.view(np.uint32) if frame.dtype == np.float32 else frame
    mask = _reference_uncorrelated_flip_mask(
        words.shape, words.dtype.itemsize * 8, model.config.gamma0, rng
    ).astype(words.dtype)
    return (words ^ mask).view(frame.dtype), mask


def _reference_counters(model, frames, seed, profile=None):
    """Per-frame corrupt, then per-frame popcount/nonzero sums."""
    out, bits, words = np.empty_like(frames), 0, 0
    for i in range(frames.shape[0]):
        frame_model = (
            model if profile is None
            else UncorrelatedFaultModel(float(profile.gamma_at(i)))
        )
        out[i], mask = _reference_corrupt(frame_model, frames[i, ...], frame_rng(seed, i))
        if mask.dtype == np.float32:
            mask = bitops.float32_to_bits(mask)
        bits += int(bitops.popcount(mask).sum())
        words += int(np.count_nonzero(mask))
    return out, bits, words


class TestInjectStageChunks:
    @pytest.mark.parametrize(
        "model, profile, frames",
        [
            (UncorrelatedFaultModel(0.03), None,
             np.arange(70 * 64, dtype=np.uint16).reshape(70, 64)),
            (UncorrelatedFaultModel(0.03), None,
             np.arange(70, dtype=np.uint16)),
            (UncorrelatedFaultModel(0.02), None,
             np.linspace(-5, 5, 70 * 9, dtype=np.float32).reshape(70, 3, 3)),
            (CorrelatedFaultModel(), None,
             np.arange(70 * 16, dtype=np.uint16).reshape(70, 4, 4)),
            (UncorrelatedFaultModel(0.0),
             GammaStepProfile(base=0.001, elevated=0.2, period=9, duty=0.5),
             np.arange(70 * 8, dtype=np.uint16).reshape(70, 8)),
        ],
    )
    def test_counters_and_batch_match_per_frame(self, model, profile, frames):
        expected, bits, words = _reference_counters(model, frames, 11, profile)
        assert bits > 0
        stage = InjectStage(model, seed=11, profile=profile)
        parts = [stage.process(frames[part]) for part in _chunks(70, [5, 0, 13, 1])]
        streamed = np.concatenate(parts)
        assert streamed.tobytes() == expected.tobytes()
        assert (stage.n_bits_flipped, stage.n_words_hit) == (bits, words)
        batch = InjectStage(model, seed=11, profile=profile).batch(frames)
        assert batch.tobytes() == expected.tobytes()

    def test_profiled_models_stay_bounded(self):
        # Γ moves every frame under a long sine; one model per distinct
        # Γ used to be kept forever.
        stage = InjectStage(
            UncorrelatedFaultModel(0.0), seed=2,
            profile=GammaSineProfile(period=10**7),
        )
        frames = np.zeros((1024, 1), dtype=np.uint16)

        def live_models():
            gc.collect()
            return sum(
                isinstance(o, UncorrelatedFaultModel) for o in gc.get_objects()
            )

        before = live_models()
        for _ in range(10):
            stage.process(frames)
        assert live_models() - before <= 1
