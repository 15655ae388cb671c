"""Stream telemetry: per-stage throughput and latency.

Extends the :mod:`repro.runtime.telemetry` hub with streaming events —
the same synchronous pub/sub :class:`~repro.runtime.telemetry.Telemetry`
class carries them.  The pipeline emits one :class:`StreamStarted` per
run, one :class:`ChunkCompleted` per chunk, and one
:class:`StreamCompleted` with the per-stage totals.

:class:`StreamProgressPrinter` is the stock subscriber behind
``repro stream --progress``; it renders stream events as one-line
messages and stays silent on any other event.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TextIO, Union

from repro.runtime.telemetry import Telemetry

__all__ = [
    "ChunkCompleted",
    "LambdaAdjusted",
    "StageStats",
    "StreamCompleted",
    "StreamProgressPrinter",
    "StreamStarted",
    "Telemetry",
]


@dataclass(frozen=True)
class StreamStarted:
    """Emitted when a streaming run begins (or resumes).

    Attributes:
        source: the source's :meth:`~repro.stream.source.FrameSource.describe`.
        stages: stage names, pipeline order.
        chunk_frames: transport chunk size in frames.
        resumed_frames: frames restored from a checkpoint (0 for a
            fresh run).
    """

    source: str
    stages: tuple[str, ...]
    chunk_frames: int
    resumed_frames: int


@dataclass(frozen=True)
class ChunkCompleted:
    """Emitted as each transport chunk clears the whole pipeline.

    Attributes:
        chunk_index: which chunk completed (counting resumed ones).
        frames_in: frames pulled from the source for this chunk.
        frames_out: frames the final stage emitted during this chunk.
        elapsed_s: wall-clock seconds for the chunk, all stages.
        frames_per_sec: chunk throughput (input frames / elapsed).
    """

    chunk_index: int
    frames_in: int
    frames_out: int
    elapsed_s: float
    frames_per_sec: float


@dataclass(frozen=True)
class LambdaAdjusted:
    """Emitted when the online autotuner commits a sensitivity change.

    Fired by :class:`repro.stream.autotune_stage.AutotuneVoterStage`
    after the hysteresis rule (``confirm`` consecutive agreeing
    estimates at least ``min_delta`` away from the current Λ) accepts a
    new operating point.  The Λ trajectory of a stream is the ordered
    sequence of these events.

    Attributes:
        label: the stage's owner label ('' for plain CLI streams; the
            tenant name under ``repro serve``).
        stack_index: stacks processed when the change took effect (the
            next stack runs at ``new_sensitivity``).
        frame_index: input frames consumed when the change took effect.
        old_sensitivity: the Λ being replaced.
        new_sensitivity: the Λ now in force.
        estimated_sigma: σ̂ of the window estimate that won.
        estimated_gamma: Γ̂ of the window estimate that won.
    """

    label: str
    stack_index: int
    frame_index: int
    old_sensitivity: float
    new_sensitivity: float
    estimated_sigma: float
    estimated_gamma: float


@dataclass(frozen=True)
class StageStats:
    """Lifetime accounting for one pipeline stage.

    Attributes:
        name: the stage's name.
        frames_in: frames the stage consumed.
        frames_out: frames the stage emitted (trails ``frames_in`` by
            the stage's window/stack lag until the flush).
        elapsed_s: cumulative seconds spent inside the stage.
        frames_per_sec: stage throughput (consumed frames / elapsed).
        max_buffered: most frames the stage ever carried between chunks.
    """

    name: str
    frames_in: int
    frames_out: int
    elapsed_s: float
    frames_per_sec: float
    max_buffered: int


@dataclass(frozen=True)
class StreamCompleted:
    """Emitted once when the source is exhausted and all stages flushed.

    Attributes:
        n_frames_in: total frames pulled from the source.
        n_frames_out: total frames emitted by the final stage.
        n_chunks: transport chunks processed (counting resumed ones).
        elapsed_s: end-to-end wall-clock seconds for this process's part
            of the run (resumed chunks excluded).
        frames_per_sec: overall throughput over ``elapsed_s``.
        stages: per-stage totals, pipeline order.
    """

    n_frames_in: int
    n_frames_out: int
    n_chunks: int
    elapsed_s: float
    frames_per_sec: float
    stages: tuple[StageStats, ...]


StreamEvent = Union[StreamStarted, ChunkCompleted, LambdaAdjusted, StreamCompleted]


class StreamProgressPrinter:
    """Stock subscriber: one line per stream event.

    Args:
        stream: output stream (default stderr, keeping stdout clean for
            result tables and JSON).
        every: print only every *n*-th :class:`ChunkCompleted` (start
            and completion always print); chunks can be subsecond, so
            the default thins the chunk chatter.
    """

    def __init__(self, stream: TextIO | None = None, every: int = 1) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.every = max(1, int(every))

    def __call__(self, event: object) -> None:
        if isinstance(event, ChunkCompleted) and event.chunk_index % self.every:
            return
        line = self.format(event)
        if line:
            print(line, file=self.stream, flush=True)

    @staticmethod
    def format(event: object) -> str:
        """The one-line rendering of *event* ('' to stay silent)."""
        if isinstance(event, StreamStarted):
            resumed = (
                f", resumed at frame {event.resumed_frames}"
                if event.resumed_frames
                else ""
            )
            return (
                f"[stream] start: {' -> '.join(event.stages) or 'passthrough'} "
                f"over {event.source}; chunk={event.chunk_frames}{resumed}"
            )
        if isinstance(event, ChunkCompleted):
            return (
                f"[stream] chunk {event.chunk_index}: {event.frames_in} frame(s) "
                f"in {event.elapsed_s:.3f}s ({event.frames_per_sec:.1f} frames/s)"
            )
        if isinstance(event, LambdaAdjusted):
            owner = f"{event.label}: " if event.label else ""
            return (
                f"[stream] {owner}lambda {event.old_sensitivity:g} -> "
                f"{event.new_sensitivity:g} at stack {event.stack_index} "
                f"(frame {event.frame_index}; sigma~{event.estimated_sigma:.1f}, "
                f"gamma~{event.estimated_gamma:.2g})"
            )
        if isinstance(event, StreamCompleted):
            per_stage = "; ".join(
                f"{s.name} {s.frames_per_sec:.0f} f/s (lag<={s.max_buffered})"
                for s in event.stages
            )
            return (
                f"[stream] done: {event.n_frames_in} frame(s) in "
                f"{event.n_chunks} chunk(s), {event.elapsed_s:.3f}s "
                f"({event.frames_per_sec:.1f} frames/s)"
                + (f" | {per_stage}" if per_stage else "")
            )
        return ""
