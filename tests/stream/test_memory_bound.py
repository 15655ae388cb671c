"""The streaming path's O(chunk + window) memory bound.

Peak traced allocation of a 64-coordinate stream stays flat when the
stream length doubles, and stays below the batch pipeline's peak over
the same frames.  numpy registers its buffer allocator with
``tracemalloc``, so the peak captures array storage without the noise
of whole-process RSS.
"""

import tracemalloc

from repro.faults import UncorrelatedFaultModel
from repro.stream import (
    InjectStage,
    StreamPipeline,
    SyntheticWalkSource,
    VoterStage,
    run_batch,
)

COORD = (64,)
CHUNK = 64
N_SMALL = 2048
N_LARGE = 2 * N_SMALL


def _source_and_stages(n_frames):
    source = SyntheticWalkSource(shape=COORD, seed=3, n_frames=n_frames)
    stages = [
        InjectStage(UncorrelatedFaultModel(0.01), seed=5),
        VoterStage(stack_frames=32),
    ]
    return source, stages


def _traced_peak(fn) -> int:
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _stream_peak(n_frames) -> int:
    source, stages = _source_and_stages(n_frames)
    return _traced_peak(StreamPipeline(source, stages, chunk_frames=CHUNK).run)


def test_doubling_the_stream_barely_moves_its_peak():
    # The first run in a process pays one-off allocations (module-level
    # caches, kernel setup) that would otherwise inflate the small peak.
    _stream_peak(CHUNK)
    small, large = _stream_peak(N_SMALL), _stream_peak(N_LARGE)
    assert large / small < 1.25


def test_stream_peak_stays_below_the_batch_peak():
    stream = _stream_peak(N_LARGE)
    batch = _traced_peak(lambda: run_batch(*_source_and_stages(N_LARGE)))
    assert stream < batch
