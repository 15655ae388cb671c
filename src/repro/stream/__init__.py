"""Bounded-memory streaming preprocessing pipeline (``repro.stream``).

The batch pipeline materializes a whole ``(T,) + coord_shape`` stack;
this subsystem runs the same algorithms — ``Algo_NGST``, the §4
smoothers, inline fault injection, Ψ accounting — over unbounded frame
sequences in O(chunk + window) memory, with per-stage telemetry and
crash-safe chunk-boundary checkpoints.

The load-bearing contract (see :mod:`repro.stream.pipeline`): for any
chunk size and seed, the streamed outputs and Ψ values are
bit-identical to the batch pipeline on the same stream.

Quick start::

    from repro.stream import (
        InjectStage, StreamPipeline, SyntheticWalkSource, VoterStage,
    )
    from repro.faults import UncorrelatedFaultModel

    source = SyntheticWalkSource(shape=(64,), seed=7, n_frames=4096)
    result = StreamPipeline(
        source,
        [InjectStage(UncorrelatedFaultModel(), seed=11), VoterStage()],
        chunk_frames=128,
    ).run()
    print(result.psi_no_preprocessing, result.psi_algorithm)

``StreamSpec(gamma=0.01, inject_seed=11).build_stages()`` builds such a
chain from one declared contract, as ``repro serve`` tenants do.
Or from the command line: ``repro stream --frames 4096 --chunk-frames
128 --progress``.
"""

from repro.stream.autotune_stage import AutotuneVoterStage
from repro.stream.checkpoint import StreamCheckpoint, decode_array, encode_array
from repro.stream.pipeline import (
    BatchResult,
    InjectStage,
    Stage,
    StreamingPsi,
    StreamPipeline,
    StreamResult,
    VoterStage,
    WindowedStage,
    run_batch,
)
from repro.stream.smoothers import SMOOTHERS, smoother_stage
from repro.stream.spec import StreamSpec
from repro.stream.source import (
    ArraySource,
    DownlinkSource,
    FrameSeeder,
    FrameSource,
    LimitedSource,
    PushFrameSource,
    SyntheticWalkSource,
    frame_rng,
    read_all,
)
from repro.stream.telemetry import (
    ChunkCompleted,
    LambdaAdjusted,
    StageStats,
    StreamCompleted,
    StreamProgressPrinter,
    StreamStarted,
)

__all__ = [
    "ArraySource",
    "AutotuneVoterStage",
    "BatchResult",
    "ChunkCompleted",
    "LambdaAdjusted",
    "DownlinkSource",
    "FrameSeeder",
    "FrameSource",
    "InjectStage",
    "LimitedSource",
    "PushFrameSource",
    "SMOOTHERS",
    "Stage",
    "StageStats",
    "StreamCheckpoint",
    "StreamCompleted",
    "StreamPipeline",
    "StreamProgressPrinter",
    "StreamResult",
    "StreamSpec",
    "StreamStarted",
    "StreamingPsi",
    "SyntheticWalkSource",
    "VoterStage",
    "WindowedStage",
    "decode_array",
    "encode_array",
    "frame_rng",
    "read_all",
    "run_batch",
    "smoother_stage",
]
