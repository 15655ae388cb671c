"""The serve-layer sources: push-mode ingest and clean run bounds."""

import copy
import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataFormatError
from repro.faults import UncorrelatedFaultModel
from repro.stream import (
    ArraySource,
    InjectStage,
    LimitedSource,
    PushFrameSource,
    StreamCheckpoint,
    StreamPipeline,
    SyntheticWalkSource,
    VoterStage,
    decode_array,
    read_all,
    run_batch,
)
from repro.config import NGSTConfig


def _frames(n, shape=(3,), dtype=np.uint16, start=0):
    count = n * int(np.prod(shape))
    return (
        np.arange(start, start + count, dtype=dtype).reshape((n,) + shape)
    )


class TestPushFrameSource:
    def test_push_then_read_round_trips(self):
        source = PushFrameSource((3,), np.uint16)
        frames = _frames(10)
        source.push(frames)
        assert source.received == 10
        got = source.read(10)
        np.testing.assert_array_equal(got, frames)
        assert source.read(10).shape[0] == 0

    def test_empty_read_means_nothing_now_not_end(self):
        source = PushFrameSource((3,), np.uint16)
        assert source.read(4).shape[0] == 0
        source.push(_frames(2))
        assert source.read(4).shape[0] == 2

    def test_a_message_of_any_size_lands_whole(self):
        # 5000 frames: more than the 4096 the serve ingest ring held.
        source = PushFrameSource((3,), np.uint16)
        frames = _frames(5000)
        source.push(frames)
        frames += 1  # the caller's array is not the source's
        assert source.received == 5000
        got = np.concatenate([source.read(64) for _ in range(79)])
        np.testing.assert_array_equal(got, _frames(5000))
        assert source.read(64).shape[0] == 0

    def test_format_mismatch_raises(self):
        source = PushFrameSource((3,), np.uint16)
        with pytest.raises(DataFormatError):
            source.push(_frames(2, shape=(4,)))
        with pytest.raises(DataFormatError):
            source.push(_frames(2).astype(np.float32))

    def test_state_round_trip_preserves_buffered_frames(self):
        source = PushFrameSource((3,), np.uint16, label="t/s")
        source.push(_frames(6))
        source.read(2)
        state = source.state_dict()

        clone = PushFrameSource((3,), np.uint16, label="t/s")
        clone.load_state(state)
        assert clone.received == 6
        np.testing.assert_array_equal(clone.read(10), _frames(6)[2:])

    def test_describe_carries_the_label_and_format(self):
        source = PushFrameSource((3,), np.uint16, label="serve:a/b")
        assert source.describe() == "serve:a/b(shape=(3,), dtype=<u2)"

    def test_pump_driven_pipeline_matches_batch(self):
        frames = read_all(SyntheticWalkSource((4,), seed=9, n_frames=80))
        stages = [VoterStage(NGSTConfig(upsilon=4), stack_frames=8)]
        oracle = run_batch(ArraySource(frames), stages)

        source = PushFrameSource((4,), np.uint16)
        outputs = []
        pipeline = StreamPipeline(
            source,
            [VoterStage(NGSTConfig(upsilon=4), stack_frames=8)],
            chunk_frames=16,
            sink=outputs.append,
        )
        pipeline.resume()
        pipeline.announce()
        for i in range(0, 80, 7):
            source.push(frames[i : i + 7])
            pipeline.pump()
        pipeline.pump()
        result = pipeline.finalize()
        got = np.concatenate(outputs, axis=0)
        assert got.tobytes() == oracle.output.tobytes()
        assert result.psi_algorithm == oracle.psi_algorithm


#: The occupancy counters each ring buffer wrote beside its "frames"
#: while the alignment FIFO and the push source's frames sat in rings.
RING_COUNTERS = {
    "high_water": 18, "n_pushed": 50, "n_popped": 40, "n_dropped": 0,
    "n_refused": 3,
}


def _ring_layout(state):
    """A pipeline state as the ring-buffer version wrote it: ring
    counters beside each ``frames``, the push source's ``delivered``
    count, and the Ψ accumulators' Welford ``mean``/``m2``."""
    state = copy.deepcopy(state)
    state["pending"].update(RING_COUNTERS)
    state["source"]["buffer"].update(RING_COUNTERS)
    state["source"]["delivered"] = 48
    for key in ("psi_nopre", "psi_algo"):
        state[key].update(mean=0.25, m2=0.5)
    return state


class TestRingLayoutResume:
    @staticmethod
    def _stages():
        return [
            InjectStage(UncorrelatedFaultModel(0.01), seed=3),
            VoterStage(NGSTConfig(upsilon=4), stack_frames=10),
        ]

    def _pipeline(self, path, sink=None):
        return StreamPipeline(
            PushFrameSource((4,), np.uint16, label="t/s"),
            self._stages(),
            chunk_frames=16,
            checkpoint=StreamCheckpoint(path),
            sink=sink,
        )

    def test_ring_layout_record_resumes_byte_identically(self, tmp_path):
        frames = read_all(SyntheticWalkSource((4,), seed=9, n_frames=96))
        path = tmp_path / "s.jsonl"
        oracle = run_batch(ArraySource(frames), self._stages())

        first = self._pipeline(path)
        first.resume()
        first.source.push(frames[:50])
        first.pump()
        # Keep only the boundary at frame 48, rewritten in the old
        # layout: the source still holds frames 48-49 and the alignment
        # FIFO the 8 frames the voter carries.
        records = [json.loads(line) for line in path.read_text().splitlines()]
        record = next(r for r in records if r["frames_done"] == 48)
        state = record["state"]
        assert decode_array(state["source"]["buffer"]["frames"]).shape == (2, 4)
        assert decode_array(state["pending"]["frames"]).shape == (8, 4)
        record["state"] = _ring_layout(record["state"])
        path.write_text(json.dumps(record) + "\n")

        outputs = []
        second = self._pipeline(path, sink=outputs.append)
        assert second.resume() == 48
        assert second.source.received == 50
        emitted = second.frames_out
        second.pump()
        second.source.push(frames[50:])
        second.pump()
        result = second.finalize()
        got = np.concatenate(outputs)
        assert got.tobytes() == oracle.output[emitted:].tobytes()
        assert result.psi_no_preprocessing == oracle.psi_no_preprocessing
        assert result.psi_algorithm == oracle.psi_algorithm


class TestLimitedSource:
    def test_frame_bound_ends_cleanly(self):
        inner = SyntheticWalkSource((2,), seed=1)  # unbounded
        limited = LimitedSource(inner, max_frames=50)
        frames = read_all(limited)
        assert frames.shape[0] == 50
        assert limited.read(10).shape[0] == 0  # stays exhausted

    def test_frame_bound_matches_inner_prefix(self):
        whole = read_all(SyntheticWalkSource((2,), seed=4, n_frames=64))
        limited = LimitedSource(
            SyntheticWalkSource((2,), seed=4), max_frames=40
        )
        np.testing.assert_array_equal(read_all(limited), whole[:40])

    def test_time_bound_with_injected_clock(self):
        ticks = iter([0.0, 0.1, 0.2, 5.0, 5.1])
        limited = LimitedSource(
            SyntheticWalkSource((2,), seed=2),
            max_seconds=1.0,
            clock=lambda: next(ticks),
        )
        assert limited.read(8).shape[0] == 8  # clock 0.1: within budget
        assert limited.read(8).shape[0] == 8  # clock 0.2
        assert limited.read(8).shape[0] == 0  # clock 5.0: budget spent

    def test_describe_names_the_frame_bound_only(self):
        limited = LimitedSource(
            SyntheticWalkSource((2,), seed=0), max_frames=10, max_seconds=9.0
        )
        assert "max_frames=10" in limited.describe()
        assert "9.0" not in limited.describe()

    def test_state_round_trip(self):
        source = LimitedSource(
            SyntheticWalkSource((2,), seed=3), max_frames=20
        )
        first = source.read(12)
        clone = LimitedSource(
            SyntheticWalkSource((2,), seed=3), max_frames=20
        )
        clone.load_state(source.state_dict())
        rest = clone.read(20)
        assert rest.shape[0] == 8
        whole = read_all(
            LimitedSource(SyntheticWalkSource((2,), seed=3), max_frames=20)
        )
        np.testing.assert_array_equal(
            np.concatenate([first, rest]), whole
        )

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"max_frames": 0}, {"max_seconds": 0.0}, {"max_seconds": -1.0},
         # Only constructed: a source that accepted these would never end.
         {"max_seconds": float("nan")}, {"max_seconds": float("inf")}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            LimitedSource(SyntheticWalkSource((2,), seed=0), **kwargs)
