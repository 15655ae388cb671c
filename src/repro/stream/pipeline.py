"""Composable streaming stages and the pull-based pipeline driver.

The engine runs the paper's preprocessing algorithms over unbounded
frame sequences in O(chunk + window) memory, under one load-bearing
contract, enforced by the property tests:

    For any chunk size and any seed, the streaming outputs and Ψ values
    are bit-identical to the batch pipeline run on the whole stream.
    Chunking is an execution detail, never a semantics change.

Three mechanisms make that hold:

* **Window carry** — :class:`WindowedStage` keeps the trailing
  ``window`` input frames between chunks and re-runs the *batch* kernel
  (the PR 2 vectorized implementations, unmodified) over the carried
  overlap plus the new frames, emitting only the outputs whose centred
  windows are complete.  Head and tail frames see the kernel's own
  clamped-edge handling exactly once, at the true stream boundaries.
* **Stack carry** — :class:`VoterStage` groups frames into consecutive
  Υ-voter stacks of ``stack_frames`` and runs ``Algo_NGST`` per stack;
  a chunk boundary mid-stack simply leaves a partial carry.
* **Per-frame seeding** — :class:`InjectStage` derives each frame's
  fault RNG from the frame *index* (``SeedSequence`` spawn children),
  so the flip pattern cannot depend on chunk boundaries.

Ψ is accumulated by :class:`StreamingPsi` — a Kahan-compensated sum of
per-frame error sums — whose result is a function of the frame sequence
only.  The batch side of the contract is :func:`run_batch`, which
applies each stage's ``batch()`` semantics to the materialized stream
and feeds the same accumulator; :class:`StreamPipeline` must match it
byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.config import NGSTConfig
from repro.core import bitops
from repro.core.algo_ngst import AlgoNGST
from repro.exceptions import (
    CheckpointMismatchError,
    ConfigurationError,
    DataFormatError,
    StreamError,
)
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.stream.checkpoint import StreamCheckpoint, decode_array, encode_array
from repro.stream.source import FrameSeeder, FrameSource, read_all
from repro.stream.telemetry import (
    ChunkCompleted,
    StageStats,
    StreamCompleted,
    StreamStarted,
    Telemetry,
)

#: Default Ψ clamps, kept in lockstep with repro.metrics.relative_error.psi.
PSI_FLOOR = 1e-9
PSI_CAP = 1e6


class StreamingPsi:
    """Chunk-invariant streaming accumulation of the paper's Ψ metric.

    The element-wise relative error is computed exactly as
    :func:`repro.metrics.relative_error.psi` does (same float64 casts,
    denominator floor, and cap), for a whole chunk at once; each frame's
    error *sum* is its own row sum, and enters a Kahan-compensated
    running total one frame at a time in frame order.  Element-wise
    operations do not depend on their neighbours, and a row sum equals
    the frame's own sum, so the accumulated value is a function of the
    frame sequence alone — the streaming pipeline and the batch
    comparator produce the same bits no matter how the frames were
    chunked.

    ``value`` equals ``psi(observed, pristine)`` up to the difference
    between numpy's pairwise-summed mean and the compensated sum —
    ~1e-12 relative on realistic streams (asserted by the equivalence
    tests).
    """

    def __init__(self, floor: float = PSI_FLOOR, cap: float = PSI_CAP) -> None:
        if cap <= 0:
            raise ConfigurationError(f"cap must be > 0, got {cap}")
        self.floor = float(floor)
        self.cap = float(cap)
        self._sum = 0.0
        self._comp = 0.0  # Kahan compensation term
        self._count = 0
        self._n_frames = 0

    def update(self, observed: np.ndarray, pristine: np.ndarray) -> None:
        """Accumulate a ``(k,) + coord_shape`` pair of frame chunks."""
        observed = np.asarray(observed)
        pristine = np.asarray(pristine)
        if observed.shape != pristine.shape:
            raise DataFormatError(
                f"shape mismatch: observed {observed.shape} vs "
                f"pristine {pristine.shape}"
            )
        k = observed.shape[0]
        frame_size = observed[0].size if k else 0
        # In place, so a whole-stack update holds two float64 copies of
        # the chunk, not one per operation.
        err = observed.astype(np.float64)
        ref = pristine.astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            err -= ref
            np.abs(err, out=err)
            denom = np.maximum(np.abs(ref, out=ref), self.floor, out=ref)
            err /= denom
        finite = np.isfinite(err)
        np.minimum(err, self.cap, out=err)
        np.copyto(err, self.cap, where=~finite)
        # Each row is one contiguous frame, so its sum is the per-frame
        # err.sum() bit for bit; the compensated sum below stays scalar
        # and in frame order.
        frame_sums = err.reshape(k, frame_size).sum(axis=1).tolist()
        for frame_sum in frame_sums:
            y = frame_sum - self._comp
            t = self._sum + y
            self._comp = (t - self._sum) - y
            self._sum = t
        self._count += k * frame_size
        self._n_frames += k

    @property
    def value(self) -> float:
        """The accumulated Ψ (mean element-wise relative error)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def n_frames(self) -> int:
        """Frames accumulated so far."""
        return self._n_frames

    def state_dict(self) -> dict:
        """Exact JSON-serializable accumulator state."""
        return {
            "sum": self._sum,
            "comp": self._comp,
            "count": self._count,
            "n_frames": self._n_frames,
            "floor": self.floor,
            "cap": self.cap,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly (the ``mean`` and
        ``m2`` keys that older records carry are ignored)."""
        self._sum = float(state["sum"])
        self._comp = float(state["comp"])
        self._count = int(state["count"])
        self._n_frames = int(state["n_frames"])
        self.floor = float(state["floor"])
        self.cap = float(state["cap"])


class Stage:
    """Base class for pipeline stages.

    A stage consumes chunks of frames via :meth:`process` (returning
    the frames it can emit so far, possibly fewer while its window
    fills) and :meth:`flush` once at end-of-stream.  ``lag`` bounds the
    frames a stage may carry between chunks — the pipeline sizes its
    alignment FIFO from the sum of lags, so the bound is part of the
    stage contract.  ``batch()`` states the stage's batch-pipeline
    semantics on a whole in-memory stack; it is pure (no streaming
    state touched) and is what :func:`run_batch` and the equivalence
    tests run against.
    """

    #: Stage name for telemetry and fingerprints.
    name: str = "stage"
    #: True when the stage injects faults; the pipeline measures
    #: Ψ_NoPreprocessing across it (such a stage must have lag 0).
    corrupts: bool = False
    #: Maximum frames carried between process calls.
    lag: int = 0

    def process(self, frames: np.ndarray) -> np.ndarray:
        """Consume a chunk; return the frames emittable so far."""
        raise NotImplementedError

    def flush(self) -> np.ndarray:
        """Emit whatever the stage still holds (end of stream)."""
        raise NotImplementedError

    def batch(self, stack: np.ndarray) -> np.ndarray:
        """The stage's semantics on a whole ``(T,) + coord_shape`` stack."""
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Exact JSON-serializable stage state for checkpoints."""
        raise NotImplementedError

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly."""
        raise NotImplementedError

    def describe(self) -> str:
        """Identity string used in checkpoint fingerprints."""
        return self.name


class InjectStage(Stage):
    """Inline fault injection with per-frame-index seeding.

    Frame *i* is corrupted with ``model.corrupt(frame, rng_i)`` where
    ``rng_i`` is the *i*-th spawn child of *seed* — identical flips for
    identical frame indices, regardless of chunking, and resumable from
    a bare frame counter.  The stage's :class:`FrameSeeder` reseeds one
    Generator to each ``rng_i`` in turn, and an uncorrelated model
    corrupts the whole chunk at once
    (:meth:`~repro.faults.uncorrelated.UncorrelatedFaultModel.corrupt_chunk`);
    both are byte-identical to the per-frame definition.

    Args:
        model: any :mod:`repro.faults` model (``corrupt(data, rng)``).
        seed: root entropy of the per-frame spawn tree.
        profile: optional :data:`repro.faults.profile.GammaProfile`; when
            set, frame *i* is corrupted with an
            :class:`~repro.faults.uncorrelated.UncorrelatedFaultModel`
            at ``profile.gamma_at(i)`` instead of the static *model* —
            Γ as a function of the global frame index, so the
            time-varying rate is exactly as chunk-invariant and
            resume-safe as the static one.
    """

    corrupts = True
    lag = 0

    def __init__(self, model, seed: int = 0, profile=None) -> None:
        if not hasattr(model, "corrupt"):
            raise ConfigurationError(
                f"fault model must expose corrupt(data, rng), "
                f"got {type(model).__name__}"
            )
        if profile is not None and not hasattr(profile, "gamma_at"):
            raise ConfigurationError(
                f"profile must expose gamma_at(index), "
                f"got {type(profile).__name__}"
            )
        self.model = model
        self.profile = profile
        self._seeder = FrameSeeder(seed)
        self.seed = self._seeder.seed
        self.name = f"inject[{type(model).__name__}]"
        # The chunk-wide path serves the uncorrelated model itself (not a
        # subclass that may corrupt differently) and every profile.
        self._uncorrelated = (
            UncorrelatedFaultModel() if profile is not None
            else model if type(model) is UncorrelatedFaultModel
            else None
        )
        self._next = 0
        self._template: np.ndarray | None = None
        self.n_bits_flipped = 0
        self.n_words_hit = 0

    def _corrupt_chunk(
        self, frames: np.ndarray, start: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Corrupt frames ``start, start + 1, ...``; return them and
        their flip masks (``None`` for an empty chunk)."""
        k = frames.shape[0]
        rngs = self._seeder.generators(start, k)
        if self._uncorrelated is not None:
            gammas = None
            if self.profile is not None:
                gammas = [float(self.profile.gamma_at(start + j)) for j in range(k)]
            return self._uncorrelated.corrupt_chunk(frames, rngs, gammas)
        out = np.empty_like(frames)
        masks = None
        for j, rng in enumerate(rngs):
            # frames[j, ...] keeps a scalar frame a 0-d array.
            out[j], mask = self.model.corrupt(frames[j, ...], rng)
            if masks is None:
                masks = np.empty((k,) + mask.shape, dtype=mask.dtype)
            masks[j] = mask
        return out, masks

    def process(self, frames: np.ndarray) -> np.ndarray:
        out, masks = self._corrupt_chunk(frames, self._next)
        if masks is not None:
            if masks.dtype == np.float32:
                masks = bitops.float32_to_bits(masks)
            self.n_bits_flipped += int(bitops.popcount(masks).sum())
            self.n_words_hit += int(np.count_nonzero(masks))
        self._next += frames.shape[0]
        self._template = frames[:0]
        return out

    def flush(self) -> np.ndarray:
        # Lag-free: nothing is ever carried between chunks.
        if self._template is None:
            return np.empty((0,))
        return self._template

    def batch(self, stack: np.ndarray) -> np.ndarray:
        return self._corrupt_chunk(stack, 0)[0]

    def state_dict(self) -> dict:
        return {
            "next": self._next,
            "n_bits_flipped": self.n_bits_flipped,
            "n_words_hit": self.n_words_hit,
        }

    def load_state(self, state: dict) -> None:
        self._next = int(state["next"])
        self.n_bits_flipped = int(state["n_bits_flipped"])
        self.n_words_hit = int(state["n_words_hit"])

    def describe(self) -> str:
        cfg = getattr(self.model, "config", None)
        base = f"{self.name}(config={cfg!r}, seed={self.seed})"
        # Profile-less stages keep the historical fingerprint.
        if self.profile is None:
            return base
        return f"{base}+profile({self.profile.describe()})"


class WindowedStage(Stage):
    """A centred-window kernel run over sliding chunks with overlap carry.

    Wraps any batch kernel with the repo's centred-window conventions —
    :func:`~repro.baselines.median.median_smooth_temporal`,
    :func:`~repro.baselines.majority.majority_vote_window`, the §4
    weighted smoothers — and streams it: the stage keeps the trailing
    ``window`` input frames, re-runs the kernel over carry + new frames,
    and emits only the outputs whose centred windows are complete.

    Correctness at the seams, with ``half = window // 2``:

    * An *interior* output ``i`` needs exactly inputs
      ``[i - half, i + half]``; the carry guarantees they are present
      and lie strictly inside the kernel's sub-array (no edge handling
      touches them), so the value is the batch kernel's at that index.
    * The first ``half`` outputs are only emitted while the carry still
      starts at frame 0, so the kernel's own head clamping (nearest
      full window / edge pad) applies exactly as in the batch run.
    * The last ``half`` outputs are emitted by :meth:`flush`, where the
      carry holds the final ``window`` frames — the kernel's tail
      clamping sees the true end of stream.

    Args:
        kernel: ``stack -> stack`` batch kernel (same-length output).
        window: odd centred window width >= 3.
        name: telemetry/fingerprint name.
    """

    def __init__(
        self,
        kernel: Callable[[np.ndarray], np.ndarray],
        window: int,
        name: str,
    ) -> None:
        if window < 3 or window % 2 == 0:
            raise ConfigurationError(f"window must be odd and >= 3, got {window}")
        self.kernel = kernel
        self.window = int(window)
        self.name = name
        self.lag = self.window  # carry holds at most `window` frames
        self._buf: np.ndarray | None = None
        self._start = 0  # global index of _buf[0]
        self._emitted = 0  # next output index to emit
        self._seen = 0  # total input frames seen

    def process(self, frames: np.ndarray) -> np.ndarray:
        if frames.shape[0] == 0:
            return frames
        if self._buf is None:
            self._buf = np.array(frames, copy=True)
        else:
            self._buf = np.concatenate([self._buf, frames], axis=0)
        self._seen += frames.shape[0]
        half = self.window // 2
        ready = self._seen - half  # outputs [emitted, ready) are final
        if self._seen < self.window or ready <= self._emitted:
            return frames[:0]
        out = self.kernel(self._buf)
        emit = out[self._emitted - self._start : ready - self._start]
        self._emitted = ready
        keep_from = max(0, self._seen - self.window)
        self._buf = self._buf[keep_from - self._start :]
        self._start = keep_from
        return emit

    def flush(self) -> np.ndarray:
        if self._buf is None:
            raise DataFormatError(
                f"{self.name}: stream ended before any frame arrived"
            )
        # Streams shorter than the window fail here exactly as the
        # batch kernel does on the same short stack.
        out = self.kernel(self._buf)
        emit = out[self._emitted - self._start :]
        self._emitted = self._seen
        return emit

    def batch(self, stack: np.ndarray) -> np.ndarray:
        return self.kernel(stack)

    def state_dict(self) -> dict:
        return {
            "buf": None if self._buf is None else encode_array(self._buf),
            "start": self._start,
            "emitted": self._emitted,
            "seen": self._seen,
        }

    def load_state(self, state: dict) -> None:
        self._buf = None if state["buf"] is None else decode_array(state["buf"])
        self._start = int(state["start"])
        self._emitted = int(state["emitted"])
        self._seen = int(state["seen"])

    def describe(self) -> str:
        return f"{self.name}(window={self.window})"


class VoterStage(Stage):
    """``Algo_NGST`` over consecutive temporal stacks of the stream.

    The stream is grouped into back-to-back stacks of ``stack_frames``
    temporal variants — the paper's N readouts of one integration — and
    each full stack runs Algorithm 1 (Υ-way voter matrix, dynamic
    thresholds, bit-window correction) the moment its last frame
    arrives.  A chunk boundary mid-stack simply leaves a partial carry
    of at most ``stack_frames - 1`` frames.  At end of stream a
    remainder longer than Υ/2 frames is processed as a short final
    stack (the voter matrix needs more than Υ/2 variants); anything
    shorter passes through uncorrected — both rules are part of the
    batch semantics, so streaming and batch agree on every frame.

    Args:
        config: ``Algo_NGST`` parameters (Υ, Λ, per-coordinate thresholds).
        stack_frames: N, temporal variants per stack (> Υ/2).
    """

    def __init__(
        self, config: NGSTConfig | None = None, stack_frames: int = 64
    ) -> None:
        self.config = config or NGSTConfig()
        if stack_frames <= self.config.upsilon // 2:
            raise ConfigurationError(
                f"stack_frames must exceed upsilon/2="
                f"{self.config.upsilon // 2}, got {stack_frames}"
            )
        self.stack_frames = int(stack_frames)
        self._algo = AlgoNGST(self.config)
        self.name = f"algo_ngst[N={self.stack_frames}]"
        self.lag = self.stack_frames - 1
        self._pending: np.ndarray | None = None
        self.n_stacks = 0
        self.n_pixels_corrected = 0
        self.n_bits_corrected = 0

    def _run_stack(self, stack: np.ndarray) -> np.ndarray:
        result = self._algo(stack)
        self.n_stacks += 1
        self.n_pixels_corrected += result.n_pixels_corrected
        self.n_bits_corrected += result.n_bits_corrected
        return result.corrected

    def process(self, frames: np.ndarray) -> np.ndarray:
        if frames.shape[0] == 0:
            return frames
        if self._pending is None or self._pending.shape[0] == 0:
            self._pending = np.array(frames, copy=True)
        else:
            self._pending = np.concatenate([self._pending, frames], axis=0)
        emitted = []
        while self._pending.shape[0] >= self.stack_frames:
            stack = self._pending[: self.stack_frames]
            self._pending = self._pending[self.stack_frames :]
            emitted.append(self._run_stack(stack))
        if not emitted:
            return frames[:0]
        return emitted[0] if len(emitted) == 1 else np.concatenate(emitted, axis=0)

    def flush(self) -> np.ndarray:
        if self._pending is None:
            return np.empty((0,), dtype=np.uint16)
        remainder = self._pending
        self._pending = remainder[:0]
        if remainder.shape[0] > self.config.upsilon // 2:
            return self._run_stack(remainder)
        return remainder  # too short to vote on: pass through uncorrected

    def batch(self, stack: np.ndarray) -> np.ndarray:
        algo = AlgoNGST(self.config)  # fresh: batch() must not touch stats
        out = np.empty_like(stack)
        t = 0
        while t + self.stack_frames <= stack.shape[0]:
            out[t : t + self.stack_frames] = algo(
                stack[t : t + self.stack_frames]
            ).corrected
            t += self.stack_frames
        remainder = stack[t:]
        if remainder.shape[0] > self.config.upsilon // 2:
            out[t:] = algo(remainder).corrected
        else:
            out[t:] = remainder
        return out

    def state_dict(self) -> dict:
        return {
            "pending": None
            if self._pending is None
            else encode_array(self._pending),
            "n_stacks": self.n_stacks,
            "n_pixels_corrected": self.n_pixels_corrected,
            "n_bits_corrected": self.n_bits_corrected,
        }

    def load_state(self, state: dict) -> None:
        self._pending = (
            None if state["pending"] is None else decode_array(state["pending"])
        )
        self.n_stacks = int(state["n_stacks"])
        self.n_pixels_corrected = int(state["n_pixels_corrected"])
        self.n_bits_corrected = int(state["n_bits_corrected"])

    def describe(self) -> str:
        base = (
            f"{self.name}(upsilon={self.config.upsilon}, "
            f"sensitivity={self.config.sensitivity}, "
            f"per_coord={self.config.per_coordinate_thresholds})"
        )
        # The fixed strategy keeps the historical fingerprint so
        # checkpoints written before strategies existed still resume;
        # the selective strategy and its region map are part of the
        # stream's semantics and must invalidate mismatched checkpoints.
        cfg = self.config
        if cfg.strategy == "fixed":
            return base
        return base + (
            f"+strategy({cfg.strategy}, margin={cfg.margin}, "
            f"header_rows={cfg.header_rows}, science_fast={cfg.science_fast})"
        )


@dataclass(frozen=True)
class StreamResult:
    """What one streaming run produced.

    Attributes:
        n_frames_in: frames pulled from the source (counting resumed
            ones).
        n_frames_out: frames emitted by the final stage.
        n_chunks: transport chunks processed (counting resumed ones).
        psi_no_preprocessing: Ψ of the corrupted stream against the
            pristine one (None when the pipeline has no inject stage).
        psi_algorithm: Ψ of the pipeline output against the pristine
            stream.
        elapsed_s: wall-clock seconds spent in this process.
        frames_per_sec: ``n_frames_in / elapsed_s``.
        stages: per-stage totals, pipeline order.
        completed: False when the run stopped at ``limit_chunks`` with
            the source not yet exhausted (state checkpointed, resume to
            continue).
    """

    n_frames_in: int
    n_frames_out: int
    n_chunks: int
    psi_no_preprocessing: float | None
    psi_algorithm: float
    elapsed_s: float
    frames_per_sec: float
    stages: tuple[StageStats, ...] = field(default=())
    completed: bool = True

    @property
    def improvement(self) -> float | None:
        """Ψ_NoPreprocessing / Ψ_Algorithm, the paper's gain measure."""
        if self.psi_no_preprocessing is None:
            return None
        if self.psi_algorithm == 0.0:
            return float("inf") if self.psi_no_preprocessing > 0 else 1.0
        return self.psi_no_preprocessing / self.psi_algorithm


class _StageRunner:
    """A stage plus its driver-side accounting."""

    def __init__(self, stage: Stage) -> None:
        self.stage = stage
        self.frames_in = 0
        self.frames_out = 0
        self.elapsed_s = 0.0
        self.max_buffered = 0

    def run(self, frames: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        out = self.stage.process(frames)
        self.elapsed_s += time.perf_counter() - t0
        self.frames_in += frames.shape[0]
        self.frames_out += out.shape[0]
        self.max_buffered = max(
            self.max_buffered, self.frames_in - self.frames_out
        )
        return out

    def run_flush(self) -> np.ndarray:
        t0 = time.perf_counter()
        out = self.stage.flush()
        self.elapsed_s += time.perf_counter() - t0
        self.frames_out += out.shape[0]
        return out

    @property
    def stats(self) -> StageStats:
        return StageStats(
            name=self.stage.name,
            frames_in=self.frames_in,
            frames_out=self.frames_out,
            elapsed_s=self.elapsed_s,
            frames_per_sec=(
                self.frames_in / self.elapsed_s if self.elapsed_s > 0 else 0.0
            ),
            max_buffered=self.max_buffered,
        )

    def state_dict(self) -> dict:
        return {
            "stage": self.stage.state_dict(),
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "max_buffered": self.max_buffered,
        }

    def load_state(self, state: dict) -> None:
        self.stage.load_state(state["stage"])
        self.frames_in = int(state["frames_in"])
        self.frames_out = int(state["frames_out"])
        self.max_buffered = int(state["max_buffered"])


class StreamPipeline:
    """Pull-based streaming engine: source → stages → Ψ.

    Each cycle reads at most ``chunk_frames`` frames from the source and
    pushes them through the stage chain.  Every source's ``read``
    returns a fresh array, so the chunk goes to the stages as it is.
    Pristine frames wait in an alignment FIFO until the final stage
    emits the frames they align with.  Holding more than
    ``chunk_frames + Σ stage lags`` of them raises
    :class:`~repro.exceptions.StreamError`, so the documented
    O(chunk + window) memory bound is enforced at runtime, not just
    claimed.

    Ψ accounting: the frames *entering* the first ``corrupts`` stage
    are the pristine reference; Ψ_NoPreprocessing is accumulated across
    that stage (it must be lag-free) and Ψ_Algorithm between the final
    stage's output and the aligned reference frames.  Without a
    ``corrupts`` stage the source frames are the reference and only
    Ψ_Algorithm is reported (the smoothing-distortion view).

    Args:
        source: where frames come from.
        stages: the stage chain, upstream first (may be empty).
        chunk_frames: transport granularity in frames (>= 1).  Never a
            semantics knob: results are bit-identical for every value.
        telemetry: optional hub for stream events.
        checkpoint: optional :class:`StreamCheckpoint`; when set, every
            chunk boundary records the exact pipeline state and
            :meth:`run` resumes from the latest matching record.  A
            store that holds records but none matching this pipeline's
            fingerprint raises
            :class:`~repro.exceptions.CheckpointMismatchError` instead
            of silently restarting from frame zero (the stream's
            configuration changed since the interrupted run).
        sink: optional consumer called with every ``(k,) + coord_shape``
            chunk the final stage emits — the stream's output tap (the
            equivalence tests use it to collect frames for byte-for-byte
            comparison against the batch output).
    """

    def __init__(
        self,
        source: FrameSource,
        stages: Sequence[Stage] = (),
        chunk_frames: int = 64,
        telemetry: Telemetry | None = None,
        checkpoint: StreamCheckpoint | None = None,
        sink: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        if chunk_frames < 1:
            raise ConfigurationError(
                f"chunk_frames must be >= 1, got {chunk_frames}"
            )
        self.source = source
        self.stages = list(stages)
        corrupting = [s for s in self.stages if s.corrupts]
        if len(corrupting) > 1:
            raise ConfigurationError(
                "at most one corrupting stage per pipeline "
                f"(got {[s.name for s in corrupting]})"
            )
        if corrupting and corrupting[0].lag != 0:
            raise ConfigurationError(
                f"corrupting stage {corrupting[0].name} must be lag-free"
            )
        self.chunk_frames = int(chunk_frames)
        self.telemetry = telemetry
        self.checkpoint = checkpoint
        self.sink = sink
        self._runners = [_StageRunner(s) for s in self.stages]
        self._pending_bound = self.chunk_frames + sum(s.lag for s in self.stages)
        self._pending: np.ndarray | None = None  # the alignment FIFO
        self._psi_nopre = StreamingPsi()
        self._psi_algo = StreamingPsi()
        self._has_injector = any(s.corrupts for s in self.stages)
        self._chunk_index = 0
        self._frames_in = 0
        self._frames_out = 0
        self._restored_frames = 0
        self._resume_checked = False
        self._processing_s = 0.0

    def fingerprint(self) -> str:
        """Stable identity of the stream's *semantics* for checkpoints.

        Deliberately excludes ``chunk_frames``: the pipeline is
        chunk-invariant, so a checkpoint written under one chunk size
        resumes correctly under another.
        """
        stages = ",".join(s.describe() for s in self.stages)
        return f"src={self.source.describe()};stages=[{stages}];v1"

    # -- state management -------------------------------------------------

    def _state_dict(self) -> dict:
        return {
            "chunk_index": self._chunk_index,
            "frames_in": self._frames_in,
            "frames_out": self._frames_out,
            "source": self.source.state_dict(),
            "runners": [r.state_dict() for r in self._runners],
            "pending": {
                "frames": (
                    None if self._pending is None else encode_array(self._pending)
                )
            },
            "psi_nopre": self._psi_nopre.state_dict(),
            "psi_algo": self._psi_algo.state_dict(),
        }

    def _load_state(self, state: dict) -> None:
        self._chunk_index = int(state["chunk_index"])
        self._frames_in = int(state["frames_in"])
        self._frames_out = int(state["frames_out"])
        self.source.load_state(state["source"])
        if len(state["runners"]) != len(self._runners):
            raise StreamError(
                f"checkpoint has {len(state['runners'])} stage states, "
                f"pipeline has {len(self._runners)}"
            )
        for runner, sub in zip(self._runners, state["runners"]):
            runner.load_state(sub)
        # Records written while the FIFO was a ring buffer also carry its
        # occupancy counters beside "frames"; nothing reads them.
        frames = state["pending"]["frames"]
        self._pending = None if frames is None else decode_array(frames)
        self._psi_nopre.load_state(state["psi_nopre"])
        self._psi_algo.load_state(state["psi_algo"])
        self._restored_frames = self._frames_in

    def _maybe_resume(self) -> None:
        if self.checkpoint is None:
            return
        fingerprint = self.fingerprint()
        record = self.checkpoint.latest(fingerprint)
        if record is not None:
            self._load_state(record["state"])
            return
        stored = self.checkpoint.fingerprints()
        if stored:
            raise CheckpointMismatchError(
                f"checkpoint {self.checkpoint.path} holds "
                f"{len(stored)} record fingerprint(s) but none match "
                f"this pipeline ({fingerprint!r}); the stream "
                f"configuration changed since the interrupted run — "
                f"restore the original configuration or clear the "
                f"checkpoint to start over"
            )

    def resume(self) -> int:
        """Restore checkpointed state, once; returns frames restored.

        Safe to call repeatedly — only the first call consults the
        checkpoint store (:meth:`run` and the incremental drivers both
        route through here, so a pipeline is never resumed twice).
        """
        if not self._resume_checked:
            self._resume_checked = True
            self._maybe_resume()
        return self._restored_frames

    # -- the drive loop ---------------------------------------------------

    @property
    def frames_in(self) -> int:
        """Frames pulled from the source so far (counting resumed ones)."""
        return self._frames_in

    @property
    def frames_out(self) -> int:
        """Frames emitted by the final stage so far."""
        return self._frames_out

    @property
    def chunk_index(self) -> int:
        """Transport chunks processed so far (counting resumed ones)."""
        return self._chunk_index

    def _park(self, frames: np.ndarray) -> None:
        """Append pristine *frames* to the alignment FIFO, within its bound."""
        if frames.shape[0] == 0:
            return
        parked = (
            frames.copy() if self._pending is None
            else np.concatenate((self._pending, frames))
        )
        if parked.shape[0] > self._pending_bound:
            raise StreamError(
                f"alignment FIFO would hold {parked.shape[0]} frame(s), over "
                f"its bound of {self._pending_bound} (chunk_frames + Σ stage "
                f"lags): a stage carries more frames than its declared lag"
            )
        self._pending = parked

    def _through_stages(self, frames: np.ndarray, first: int = 0) -> np.ndarray:
        """Push *frames* through ``runners[first:]``, with Ψ accounting."""
        data = frames
        for runner in self._runners[first:]:
            if runner.stage.corrupts:
                self._park(data)
                pristine = data
                data = runner.run(data)
                self._psi_nopre.update(data, pristine)
            else:
                data = runner.run(data)
        return data

    def _account_output(self, data: np.ndarray) -> None:
        if data.shape[0] == 0:
            return
        self._frames_out += data.shape[0]
        reference = self._pending[: data.shape[0]]
        self._pending = self._pending[data.shape[0] :]
        self._psi_algo.update(data, reference)
        if self.sink is not None:
            self.sink(data)

    def _emit(self, event: object) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(event)

    def announce(self) -> None:
        """Emit the :class:`StreamStarted` event for this run/session."""
        self._emit(
            StreamStarted(
                source=self.source.describe(),
                stages=tuple(s.name for s in self.stages),
                chunk_frames=self.chunk_frames,
                resumed_frames=self._restored_frames,
            )
        )

    def step(self) -> int:
        """Pull and process at most one transport chunk.

        Returns the frames consumed; 0 means the source had nothing to
        give *right now* — end of stream for a pull source, "nothing
        pushed yet" for a :class:`~repro.stream.source.PushFrameSource`.
        Each consumed chunk emits a :class:`ChunkCompleted` event and,
        when a checkpoint store is attached, records the exact pipeline
        state at the new chunk boundary.
        """
        chunk = self.source.read(self.chunk_frames)
        if chunk.shape[0] == 0:
            return 0
        t0 = time.perf_counter()
        self._frames_in += chunk.shape[0]
        if not self._has_injector:
            self._park(chunk)
        out = self._through_stages(chunk)
        self._account_output(out)
        elapsed = time.perf_counter() - t0
        self._processing_s += elapsed
        self._chunk_index += 1
        self._emit(
            ChunkCompleted(
                chunk_index=self._chunk_index,
                frames_in=chunk.shape[0],
                frames_out=out.shape[0],
                elapsed_s=elapsed,
                frames_per_sec=(
                    chunk.shape[0] / elapsed if elapsed > 0 else 0.0
                ),
            )
        )
        if self.checkpoint is not None:
            self.checkpoint.record(
                self.fingerprint(),
                self._chunk_index,
                self._frames_in,
                self._state_dict(),
            )
        return chunk.shape[0]

    def pump(self) -> int:
        """Process every frame the source can deliver right now.

        The incremental (push-mode) drive: steps in chunks of up to
        ``chunk_frames``, the last one partial when fewer frames are
        waiting, and returns the total frames consumed, stopping when
        the source comes up empty.  Call :meth:`resume` once before the
        first pump and :meth:`finalize` after the producer signals end
        of stream.
        """
        total = 0
        while True:
            consumed = self.step()
            if consumed == 0:
                return total
            total += consumed

    def _flush_stages(self) -> None:
        for i, runner in enumerate(self._runners):
            t0 = time.perf_counter()
            tail = runner.run_flush()
            out = self._through_stages(tail, first=i + 1)
            self._account_output(out)
            self._processing_s += time.perf_counter() - t0

    def _build_result(self, elapsed_s: float, completed: bool) -> StreamResult:
        stats = tuple(r.stats for r in self._runners)
        result = StreamResult(
            n_frames_in=self._frames_in,
            n_frames_out=self._frames_out,
            n_chunks=self._chunk_index,
            psi_no_preprocessing=(
                self._psi_nopre.value if self._has_injector else None
            ),
            psi_algorithm=self._psi_algo.value,
            elapsed_s=elapsed_s,
            frames_per_sec=(
                self._frames_in / elapsed_s if elapsed_s > 0 else 0.0
            ),
            stages=stats,
            completed=completed,
        )
        if completed:
            self._emit(
                StreamCompleted(
                    n_frames_in=self._frames_in,
                    n_frames_out=self._frames_out,
                    n_chunks=self._chunk_index,
                    elapsed_s=elapsed_s,
                    frames_per_sec=result.frames_per_sec,
                    stages=stats,
                )
            )
        return result

    def finalize(self) -> StreamResult:
        """End an incrementally driven stream: flush stages, build result.

        The push-mode counterpart of :meth:`run`'s exhaustion path; the
        result's ``elapsed_s`` is the cumulative in-pipeline processing
        time (the incremental driver owns the wall clock).
        """
        self._flush_stages()
        return self._build_result(self._processing_s, completed=True)

    def run(self, limit_chunks: int | None = None) -> StreamResult:
        """Drive the stream to exhaustion (or for *limit_chunks* chunks).

        Returns the :class:`StreamResult`; when ``limit_chunks`` stops
        the run early the result has ``completed=False`` and — if a
        checkpoint store is configured — the state needed to resume is
        already on disk.
        """
        if limit_chunks is not None and limit_chunks < 1:
            raise ConfigurationError(
                f"limit_chunks must be >= 1, got {limit_chunks}"
            )
        self.resume()
        started_at = time.perf_counter()
        self.announce()
        chunks_this_call = 0
        exhausted = False
        while True:
            if limit_chunks is not None and chunks_this_call >= limit_chunks:
                break
            if self.step() == 0:
                exhausted = True
                break
            chunks_this_call += 1
        if exhausted:
            self._flush_stages()
        elapsed_total = time.perf_counter() - started_at
        return self._build_result(elapsed_total, completed=exhausted)


@dataclass(frozen=True)
class BatchResult:
    """The batch comparator's outputs (the other side of the contract).

    Attributes:
        output: the final ``(T,) + coord_shape`` stack.
        psi_no_preprocessing: Ψ across the corrupting stage, or None.
        psi_algorithm: Ψ of output against the pristine reference.
        n_frames: T.
    """

    output: np.ndarray
    psi_no_preprocessing: float | None
    psi_algorithm: float | None
    n_frames: int


def run_batch(source: FrameSource, stages: Sequence[Stage] = ()) -> BatchResult:
    """The whole-stream batch pipeline the streaming engine must match.

    Materializes the (finite) source, applies each stage's ``batch()``
    semantics to the full stack, and accumulates Ψ with the same
    :class:`StreamingPsi` recursion in the same frame order.  Stages'
    ``batch()`` methods are pure, so instances may be shared with a
    streaming run.
    """
    stack = read_all(source)
    reference = stack
    psi_nopre: float | None = None
    data = stack
    for stage in stages:
        if stage.corrupts:
            reference = data
            corrupted = stage.batch(data)
            acc = StreamingPsi()
            acc.update(corrupted, reference)
            psi_nopre = acc.value
            data = corrupted
        else:
            data = stage.batch(data)
    acc = StreamingPsi()
    acc.update(data, reference)
    return BatchResult(
        output=data,
        psi_no_preprocessing=psi_nopre,
        psi_algorithm=acc.value,
        n_frames=stack.shape[0],
    )
