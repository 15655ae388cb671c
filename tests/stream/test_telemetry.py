"""Stream telemetry events and the stock progress printer."""

import io

from repro.faults import UncorrelatedFaultModel
from repro.runtime.telemetry import Telemetry
from repro.stream import (
    ChunkCompleted,
    InjectStage,
    StreamCompleted,
    StreamPipeline,
    StreamProgressPrinter,
    StreamStarted,
    SyntheticWalkSource,
    VoterStage,
)


def run_with_telemetry(n_frames=96, chunk=32, **kwargs):
    events = []
    hub = Telemetry()
    hub.subscribe(events.append)
    source = SyntheticWalkSource(shape=(4,), seed=1, n_frames=n_frames)
    stages = [
        InjectStage(UncorrelatedFaultModel(0.01), seed=2),
        VoterStage(stack_frames=24),
    ]
    result = StreamPipeline(
        source, stages, chunk_frames=chunk, telemetry=hub, **kwargs
    ).run()
    return events, result


class TestEventFlow:
    def test_one_start_n_chunks_one_completion(self):
        events, result = run_with_telemetry()
        starts = [e for e in events if isinstance(e, StreamStarted)]
        chunks = [e for e in events if isinstance(e, ChunkCompleted)]
        dones = [e for e in events if isinstance(e, StreamCompleted)]
        assert len(starts) == 1 and len(dones) == 1
        assert len(chunks) == result.n_chunks == 3
        assert starts[0].stages == (
            "inject[UncorrelatedFaultModel]",
            "algo_ngst[N=24]",
        )
        assert dones[0].n_frames_in == 96
        assert [c.chunk_index for c in chunks] == [1, 2, 3]

    def test_chunk_events_carry_queue_accounting(self):
        events, result = run_with_telemetry()
        chunks = [e for e in events if isinstance(e, ChunkCompleted)]
        assert [c.frames_in for c in chunks] == [32, 32, 32]
        # Voter stacks of 24 close at frames 24, 48, 72 and 96; nothing
        # is left for the flush.
        assert [c.frames_out for c in chunks] == [24, 24, 48]
        assert sum(c.frames_out for c in chunks) == result.n_frames_out

    def test_completion_carries_stage_stats(self):
        events, _ = run_with_telemetry()
        done = next(e for e in events if isinstance(e, StreamCompleted))
        assert [s.name for s in done.stages] == [
            "inject[UncorrelatedFaultModel]",
            "algo_ngst[N=24]",
        ]
        assert all(s.frames_in == 96 for s in done.stages)


class TestProgressPrinter:
    def test_prints_stream_events(self):
        sink = io.StringIO()
        printer = StreamProgressPrinter(stream=sink)
        events, _ = run_with_telemetry()
        for event in events:
            printer(event)
        text = sink.getvalue()
        assert "[stream] start:" in text
        assert "[stream] chunk 1:" in text
        assert "[stream] done: 96 frame(s) in 3 chunk(s)" in text

    def test_every_thins_chunk_lines_only(self):
        sink = io.StringIO()
        printer = StreamProgressPrinter(stream=sink, every=2)
        events, _ = run_with_telemetry()
        for event in events:
            printer(event)
        text = sink.getvalue()
        assert "chunk 1:" not in text
        assert "chunk 2:" in text
        assert "chunk 3:" not in text
        assert "[stream] start:" in text and "[stream] done:" in text

    def test_foreign_events_are_silent(self):
        assert StreamProgressPrinter.format(object()) == ""
