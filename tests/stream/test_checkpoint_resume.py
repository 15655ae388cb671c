"""Kill/resume: an interrupted stream resumes to a bit-identical result."""

import json

import numpy as np
import pytest

from repro.exceptions import CheckpointMismatchError
from repro.faults import UncorrelatedFaultModel
from repro.stream import (
    InjectStage,
    StreamCheckpoint,
    StreamPipeline,
    SyntheticWalkSource,
    VoterStage,
    WindowedStage,
    decode_array,
    encode_array,
    run_batch,
)
from repro.baselines.median import median_smooth_temporal
from functools import partial

N_FRAMES = 170


def make_source():
    return SyntheticWalkSource(shape=(12,), seed=42, n_frames=N_FRAMES)


def make_stages():
    return [
        InjectStage(UncorrelatedFaultModel(0.01), seed=21),
        VoterStage(stack_frames=24),
        WindowedStage(partial(median_smooth_temporal, window=5), 5, "median5"),
    ]


class TestArrayCodec:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        for array in (
            rng.integers(0, 2**16, size=(7, 3), dtype=np.uint16),
            rng.normal(size=(4, 5)),  # float64 walk state
            np.empty((0, 9), dtype=np.uint16),
        ):
            back = decode_array(encode_array(array))
            assert back.dtype == array.dtype and back.shape == array.shape
            assert back.tobytes() == array.tobytes()

    def test_payload_is_json_serializable(self):
        payload = encode_array(np.arange(6, dtype=np.uint16))
        decoded = decode_array(json.loads(json.dumps(payload)))
        np.testing.assert_array_equal(decoded, np.arange(6, dtype=np.uint16))


class TestStreamCheckpoint:
    def test_latest_picks_newest_matching_record(self, tmp_path):
        ck = StreamCheckpoint(tmp_path / "s.jsonl")
        ck.record("fp-a", 1, 10, {"x": 1})
        ck.record("fp-b", 5, 50, {"x": 2})
        ck.record("fp-a", 2, 20, {"x": 3})
        best = ck.latest("fp-a")
        assert best["chunk"] == 2 and best["state"] == {"x": 3}
        assert ck.latest("fp-missing") is None

    def test_partial_trailing_line_is_skipped(self, tmp_path):
        ck = StreamCheckpoint(tmp_path / "s.jsonl")
        ck.record("fp", 1, 10, {"x": 1})
        with ck.path.open("a") as fh:
            fh.write('{"fingerprint": "fp", "chunk": 2, "frames_don')  # killed
        best = ck.latest("fp")
        assert best["chunk"] == 1

    def test_clear_removes_the_file(self, tmp_path):
        ck = StreamCheckpoint(tmp_path / "s.jsonl")
        ck.record("fp", 1, 10, {})
        ck.clear()
        assert ck.latest("fp") is None
        ck.clear()  # idempotent


class TestKillResume:
    def test_resumed_psi_is_bit_identical_to_uninterrupted(self, tmp_path):
        uninterrupted = run_batch(make_source(), make_stages())

        ck = StreamCheckpoint(tmp_path / "stream.jsonl")
        first = StreamPipeline(
            make_source(), make_stages(), chunk_frames=16, checkpoint=ck
        ).run(limit_chunks=3)
        assert not first.completed
        assert first.n_frames_in == 48

        resumed = StreamPipeline(
            make_source(), make_stages(), chunk_frames=16, checkpoint=ck
        ).run()
        assert resumed.completed
        assert resumed.n_frames_in == N_FRAMES
        assert resumed.psi_algorithm == uninterrupted.psi_algorithm
        assert (
            resumed.psi_no_preprocessing == uninterrupted.psi_no_preprocessing
        )

    def test_resume_with_different_chunk_size_is_still_exact(self, tmp_path):
        uninterrupted = run_batch(make_source(), make_stages())
        ck = StreamCheckpoint(tmp_path / "stream.jsonl")
        StreamPipeline(
            make_source(), make_stages(), chunk_frames=7, checkpoint=ck
        ).run(limit_chunks=5)
        resumed = StreamPipeline(
            make_source(), make_stages(), chunk_frames=33, checkpoint=ck
        ).run()
        assert resumed.completed
        assert resumed.psi_algorithm == uninterrupted.psi_algorithm

    def test_repeated_kills_converge_to_the_same_bits(self, tmp_path):
        uninterrupted = run_batch(make_source(), make_stages())
        ck = StreamCheckpoint(tmp_path / "stream.jsonl")
        result = None
        for _ in range(30):  # keep killing after 2 chunks until done
            result = StreamPipeline(
                make_source(), make_stages(), chunk_frames=16, checkpoint=ck
            ).run(limit_chunks=2)
            if result.completed:
                break
        assert result is not None and result.completed
        assert result.psi_algorithm == uninterrupted.psi_algorithm

    def test_changed_configuration_invalidates_checkpoint(self, tmp_path):
        ck = StreamCheckpoint(tmp_path / "stream.jsonl")
        StreamPipeline(
            make_source(), make_stages(), chunk_frames=16, checkpoint=ck
        ).run(limit_chunks=3)
        # A different injection seed changes the fingerprint: the stale
        # records match nothing, and the run refuses to start over.
        other_stages = [
            InjectStage(UncorrelatedFaultModel(0.01), seed=99),
            VoterStage(stack_frames=24),
            WindowedStage(partial(median_smooth_temporal, window=5), 5, "median5"),
        ]
        with pytest.raises(CheckpointMismatchError, match="none match"):
            StreamPipeline(
                make_source(), other_stages, chunk_frames=16, checkpoint=ck
            ).run(limit_chunks=1)

    def test_resume_without_checkpoint_store_restarts(self):
        partial_run = StreamPipeline(
            make_source(), make_stages(), chunk_frames=16
        ).run(limit_chunks=3)
        assert not partial_run.completed
        full = StreamPipeline(make_source(), make_stages(), chunk_frames=16).run()
        assert full.completed and full.n_frames_in == N_FRAMES
