"""The load-bearing contract: streaming ≡ batch, bit for bit.

For any chunk size (including 1 and larger than the dataset) and any
seed, the streaming pipeline's output frames and Ψ values must be
byte-for-byte identical to the batch pipeline run on the same stream.
"""

from functools import partial

import numpy as np
import pytest

from repro.baselines.majority import majority_vote_window
from repro.baselines.median import median_smooth_temporal
from repro.baselines.smoothing import (
    bisquare_smooth,
    inverse_square_smooth,
    mean_smooth,
    negative_exponential_smooth,
)
from repro.config import NGSTConfig
from repro.exceptions import ConfigurationError, DataFormatError
from repro.faults import CorrelatedFaultModel, UncorrelatedFaultModel
from repro.metrics import psi
from repro.stream import (
    ArraySource,
    InjectStage,
    StreamingPsi,
    StreamPipeline,
    SyntheticWalkSource,
    VoterStage,
    WindowedStage,
    read_all,
    run_batch,
)

N_FRAMES = 150


def walk(seed, shape=(16,), n=N_FRAMES):
    return SyntheticWalkSource(shape=shape, seed=seed, n_frames=n)


def stages(seed, stack=32, smoother=None, window=5):
    built = [
        InjectStage(UncorrelatedFaultModel(0.01), seed=seed),
        VoterStage(NGSTConfig(), stack_frames=stack),
    ]
    if smoother is not None:
        built.append(WindowedStage(partial(smoother, window=window), window, "sm"))
    return built


def collect_stream(source, stage_list, chunk):
    outs = []
    result = StreamPipeline(
        source, stage_list, chunk_frames=chunk,
        sink=lambda c: outs.append(c),
    ).run()
    return np.concatenate(outs, axis=0), result


class TestStreamEqualsBatch:
    @pytest.mark.parametrize("chunk", [1, 3, 17, 64, N_FRAMES, 4 * N_FRAMES])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_bit_identity_across_chunk_sizes_and_seeds(self, chunk, seed):
        ref = run_batch(walk(seed), stages(seed + 1))
        got, result = collect_stream(walk(seed), stages(seed + 1), chunk)
        assert got.tobytes() == ref.output.tobytes()
        assert result.psi_no_preprocessing == ref.psi_no_preprocessing
        assert result.psi_algorithm == ref.psi_algorithm
        assert result.n_frames_out == ref.n_frames == N_FRAMES

    @pytest.mark.parametrize(
        "smoother",
        [
            median_smooth_temporal,
            majority_vote_window,
            mean_smooth,
            negative_exponential_smooth,
            inverse_square_smooth,
            bisquare_smooth,
        ],
    )
    @pytest.mark.parametrize("window", [3, 5, 9])
    def test_every_windowed_kernel_streams_bit_identically(self, smoother, window):
        frames = read_all(walk(11, n=83))
        st = [WindowedStage(partial(smoother, window=window), window, "sm")]
        sb = [WindowedStage(partial(smoother, window=window), window, "sm")]
        ref = run_batch(ArraySource(frames), sb)
        got, result = collect_stream(ArraySource(frames), st, chunk=7)
        assert got.tobytes() == ref.output.tobytes()
        assert result.psi_algorithm == ref.psi_algorithm

    def test_full_chain_with_trailing_smoother(self):
        ref = run_batch(
            walk(2), stages(3, smoother=median_smooth_temporal, window=5)
        )
        got, result = collect_stream(
            walk(2), stages(3, smoother=median_smooth_temporal, window=5), 11
        )
        assert got.tobytes() == ref.output.tobytes()
        assert result.psi_algorithm == ref.psi_algorithm

    def test_correlated_fault_model_streams_identically(self):
        def make_stages(seed):
            return [
                InjectStage(CorrelatedFaultModel(), seed=seed),
                VoterStage(stack_frames=32),
            ]

        ref = run_batch(walk(4), make_stages(9))
        got, result = collect_stream(walk(4), make_stages(9), 19)
        assert got.tobytes() == ref.output.tobytes()
        assert result.psi_no_preprocessing == ref.psi_no_preprocessing

    def test_voter_remainder_rules_match_batch(self):
        # 150 = 4*32 + 22: remainder > upsilon/2, voted as a short stack.
        ref = run_batch(walk(8), stages(9, stack=32))
        got, _ = collect_stream(walk(8), stages(9, stack=32), 32)
        assert got.tobytes() == ref.output.tobytes()
        # 150 = 21*7 + 3... pick stack so remainder <= upsilon/2 (passthrough).
        ref2 = run_batch(walk(8), stages(9, stack=74))  # remainder 2 <= 2
        got2, _ = collect_stream(walk(8), stages(9, stack=74), 10)
        assert got2.tobytes() == ref2.output.tobytes()


class TestStreamingPsi:
    def test_tracks_metrics_psi_closely(self):
        rng = np.random.default_rng(1)
        pristine = rng.integers(1, 2**16, size=(40, 32), dtype=np.uint16)
        observed = pristine ^ rng.integers(
            0, 2**12, size=pristine.shape, dtype=np.uint16
        )
        acc = StreamingPsi()
        for start in range(0, 40, 7):  # arbitrary chunking
            acc.update(observed[start : start + 7], pristine[start : start + 7])
        batch = psi(observed, pristine)
        assert acc.value == pytest.approx(batch, rel=1e-12)
        assert acc.n_frames == 40

    def test_chunking_never_changes_the_bits(self):
        rng = np.random.default_rng(2)
        pristine = rng.integers(1, 2**16, size=(30, 8), dtype=np.uint16)
        observed = pristine ^ rng.integers(0, 64, size=pristine.shape, dtype=np.uint16)
        values = []
        for step in (1, 3, 10, 30):
            acc = StreamingPsi()
            for start in range(0, 30, step):
                acc.update(
                    observed[start : start + step], pristine[start : start + step]
                )
            values.append(acc.value)
        assert len(set(values)) == 1

    def test_zero_reference_uses_floor_and_cap(self):
        acc = StreamingPsi()
        acc.update(np.array([[1.0]]), np.array([[0.0]]))
        assert acc.value == acc.cap  # 1/max(0, floor) clamps to the cap

    def test_state_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        pristine = rng.integers(1, 2**16, size=(20, 4), dtype=np.uint16)
        observed = pristine ^ rng.integers(0, 32, size=pristine.shape, dtype=np.uint16)
        acc = StreamingPsi()
        acc.update(observed[:11], pristine[:11])
        clone = StreamingPsi()
        clone.load_state(acc.state_dict())
        acc.update(observed[11:], pristine[11:])
        clone.update(observed[11:], pristine[11:])
        assert clone.value == acc.value
        assert clone.frame_variance == acc.frame_variance

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataFormatError):
            StreamingPsi().update(np.zeros((2, 3)), np.zeros((2, 4)))


class TestBoundedMemory:
    def test_stage_carry_never_exceeds_declared_lag(self):
        _, result = collect_stream(
            walk(3), stages(4, smoother=mean_smooth, window=9), 8
        )
        for stage_stats, stage in zip(
            result.stages, stages(4, smoother=mean_smooth, window=9)
        ):
            assert stage_stats.max_buffered <= stage.lag

    def test_alignment_buffer_bound_is_enforced_not_claimed(self):
        # The pristine-alignment buffer uses the `error` policy sized to
        # chunk + sum-of-lags; a broken lag bound would raise instead of
        # silently growing.  A full run through every stage type proves
        # the bound holds.
        got, result = collect_stream(
            walk(10), stages(11, smoother=median_smooth_temporal, window=7), 5
        )
        assert result.completed and got.shape[0] == N_FRAMES


class TestValidation:
    def test_two_corrupting_stages_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamPipeline(
                walk(0),
                [
                    InjectStage(UncorrelatedFaultModel(0.01), seed=1),
                    InjectStage(UncorrelatedFaultModel(0.01), seed=2),
                ],
            )

    def test_chunk_frames_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            StreamPipeline(walk(0), [], chunk_frames=0)

    def test_limit_chunks_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            StreamPipeline(walk(0), []).run(limit_chunks=0)

    def test_windowed_stage_window_validation(self):
        with pytest.raises(ConfigurationError):
            WindowedStage(median_smooth_temporal, 4, "even")
        with pytest.raises(ConfigurationError):
            WindowedStage(median_smooth_temporal, 1, "short")

    def test_voter_stack_must_exceed_half_upsilon(self):
        with pytest.raises(ConfigurationError):
            VoterStage(NGSTConfig(upsilon=4), stack_frames=2)

    def test_stream_shorter_than_window_fails_like_batch(self):
        frames = read_all(walk(1, n=3))
        st = [WindowedStage(partial(mean_smooth, window=9), 9, "mean9")]
        with pytest.raises(DataFormatError):
            StreamPipeline(ArraySource(frames), st, chunk_frames=2).run()
        with pytest.raises(DataFormatError):
            run_batch(ArraySource(frames), st)

    def test_improvement_property(self):
        _, result = collect_stream(walk(12), stages(13), 25)
        assert result.improvement == pytest.approx(
            result.psi_no_preprocessing / result.psi_algorithm
        )
