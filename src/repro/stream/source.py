"""Frame sources: where an unbounded detector stream comes from.

A *frame* is one temporal variant — an array of ``coord_shape`` pixels
(scalar, vector, or 2-D image).  A source hands out frames in chunks of
``(k,) + coord_shape`` via :meth:`FrameSource.read`; an empty return
means the stream is exhausted (a source constructed with
``n_frames=None`` never is).

The load-bearing contract shared by every source: **the frame sequence
is a function of the frame index alone**, never of the chunk sizes the
consumer happened to read with.  Stateful randomness is derived per
frame from ``SeedSequence(entropy=seed, spawn_key=(i,))`` — the same
spawn-tree children the trial runtime uses — so ``read(1)`` a thousand
times and ``read(1000)`` once produce bit-identical frames, and a
checkpointed source can resume mid-stream from nothing but its saved
state.

Three sources cover the paper's workload shapes:

* :class:`SyntheticWalkSource` — the Eq. (1) Gaussian random walk,
  one step per frame (the NGST temporal-variant model, unbounded).
* :class:`ArraySource` — replay of an in-memory stack or an ``.npy`` /
  ``.npz`` file (``.npy`` is memory-mapped, keeping replay O(chunk)).
* :class:`DownlinkSource` — an adapter that pushes each frame of an
  inner source through the packetised CRC/ARQ downlink of
  :mod:`repro.ngst.downlink`, so transport artefacts (including the
  rare undetected CRC escapes) appear inline in the stream.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.config import NGSTDatasetConfig
from repro.data.ngst import U16_MAX
from repro.exceptions import ConfigurationError, DataFormatError
from repro.ngst.downlink import ARQDownlink, DownlinkConfig
from repro.stream.buffer import BackpressurePolicy, RingBuffer
from repro.stream.checkpoint import decode_array, encode_array


def frame_rng(seed: int, index: int) -> np.random.Generator:
    """The per-frame Generator: child *index* of the seed's spawn tree.

    ``SeedSequence(entropy=seed, spawn_key=(index,))`` is exactly the
    ``index``-th child ``SeedSequence(seed).spawn(...)`` would produce,
    but constructed directly so a resumed stream can jump to any frame
    without replaying the spawn sequence.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    )


class FrameSource:
    """Base class for frame sources.

    Subclasses must set ``coord_shape`` (the per-frame shape) and
    ``dtype``, and implement :meth:`_read` plus exact
    :meth:`state_dict` / :meth:`load_state` round-trips.
    """

    coord_shape: tuple[int, ...]
    dtype: np.dtype

    def read(self, k: int) -> np.ndarray:
        """Return the next ``m <= k`` frames as ``(m,) + coord_shape``.

        ``m == 0`` signals exhaustion.  ``k`` must be >= 1.
        """
        if k < 1:
            raise ConfigurationError(f"read size must be >= 1, got {k}")
        return self._read(int(k))

    def _read(self, k: int) -> np.ndarray:
        raise NotImplementedError

    def _empty(self) -> np.ndarray:
        return np.empty((0,) + self.coord_shape, dtype=self.dtype)

    def state_dict(self) -> dict:
        raise NotImplementedError

    def load_state(self, state: dict) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable identity (also used in checkpoint fingerprints)."""
        return type(self).__name__


def read_all(source: FrameSource, read_chunk: int = 4096) -> np.ndarray:
    """Materialize a finite source into one ``(T,) + coord_shape`` stack.

    This is the batch side of the streaming-equals-batch contract: the
    property tests stream one source instance chunk by chunk and
    ``read_all`` a freshly constructed twin, then require bit-identical
    results.  Unbounded sources never return an empty chunk, so calling
    this on one would spin forever — guard with ``n_frames``.
    """
    chunks = []
    while True:
        chunk = source.read(read_chunk)
        if chunk.shape[0] == 0:
            break
        chunks.append(chunk)
    if not chunks:
        return source._empty()
    return np.concatenate(chunks, axis=0)


class SyntheticWalkSource(FrameSource):
    """Unbounded Eq. (1) Gaussian-random-walk frames (§2.2.1).

    Every coordinate runs an independent walk ``Π(i+1) = Π(i) + Θᵢ``
    with ``Θᵢ ~ N(0, σ)``; the float64 walk state is kept unclipped
    (matching :func:`repro.data.ngst.generate_walk`) and each emitted
    frame is the state rounded and clipped into the uint16 range.  The
    step of frame *i* is drawn from :func:`frame_rng` child *i*, which
    makes the stream chunk-invariant and the source resumable from a
    checkpointed ``(index, walk-state)`` pair.

    Args:
        shape: coordinate shape of each frame (``()`` for a scalar pixel).
        config: walk parameters (σ, initial value, background floor).
        seed: root entropy of the per-frame spawn tree.
        n_frames: total frames to emit, or ``None`` for an unbounded
            stream.
    """

    def __init__(
        self,
        shape: tuple[int, ...] = (),
        config: NGSTDatasetConfig | None = None,
        seed: int = 0,
        n_frames: int | None = None,
    ) -> None:
        if n_frames is not None and n_frames < 1:
            raise ConfigurationError(f"n_frames must be >= 1, got {n_frames}")
        self.shape = tuple(int(s) for s in shape)
        self.config = config or NGSTDatasetConfig()
        self.seed = int(seed)
        self.n_frames = n_frames
        self.coord_shape = self.shape
        self.dtype = np.dtype(np.uint16)
        self._next = 0
        self._walk: np.ndarray | None = None

    def _read(self, k: int) -> np.ndarray:
        if self.n_frames is not None:
            k = min(k, self.n_frames - self._next)
            if k <= 0:
                return self._empty()
        cfg = self.config
        # Row j holds frame (next + j)'s step (frame 0: the initial
        # value); one sequential cumsum from the carried state then adds
        # them in exactly the order a frame-by-frame walk would.
        walk = np.empty((k,) + self.shape, dtype=np.float64)
        for j in range(k):
            index = self._next + j
            if index == 0:
                walk[j] = float(cfg.initial_value)
            else:
                walk[j] = frame_rng(self.seed, index).normal(0.0, cfg.sigma, self.shape)
        if self._next > 0:
            assert self._walk is not None
            walk[0] += self._walk
        np.cumsum(walk, axis=0, out=walk)
        self._walk = walk[-1].copy()
        self._next += k
        np.rint(walk, out=walk)
        np.clip(walk, cfg.background_floor, U16_MAX, out=walk)
        return walk.astype(np.uint16)

    def state_dict(self) -> dict:
        return {
            "next": self._next,
            "walk": None if self._walk is None else encode_array(self._walk),
        }

    def load_state(self, state: dict) -> None:
        self._next = int(state["next"])
        self._walk = (
            None
            if state["walk"] is None
            # A scalar walk is saved as shape (1,); restore the frame shape.
            else decode_array(state["walk"]).reshape(self.shape)
        )

    def describe(self) -> str:
        return (
            f"walk(shape={self.shape}, sigma={self.config.sigma}, "
            f"init={self.config.initial_value}, floor={self.config.background_floor}, "
            f"seed={self.seed}, n={self.n_frames})"
        )


class ArraySource(FrameSource):
    """Replay the frames of an in-memory stack or an ``.npy``/``.npz`` file.

    Args:
        frames: array of shape ``(T,) + coord_shape``; axis 0 is the
            frame axis.
        label: identity used in :meth:`describe` (defaults to the array
            shape; :meth:`from_file` sets the file path).
    """

    def __init__(self, frames: np.ndarray, label: str | None = None) -> None:
        frames = np.asarray(frames)
        if frames.ndim < 1:
            raise DataFormatError("frames must have a leading frame axis")
        self._frames = frames
        self._pos = 0
        self.coord_shape = frames.shape[1:]
        self.dtype = frames.dtype
        self._label = label or f"array{tuple(frames.shape)}"

    @classmethod
    def from_file(cls, path: "str | Path", key: str = "frames") -> "ArraySource":
        """Open an ``.npy`` (memory-mapped) or ``.npz`` (by *key*) replay.

        Memory-mapping keeps an ``.npy`` replay's resident footprint at
        O(chunk): frames are paged in as :meth:`read` copies them out.
        """
        path = Path(path)
        if path.suffix == ".npz":
            with np.load(path) as archive:
                if key not in archive.files:
                    raise DataFormatError(
                        f"{path} has no array {key!r} (found {archive.files})"
                    )
                frames = archive[key]
        else:
            frames = np.load(path, mmap_mode="r")
        return cls(frames, label=f"file({path.name}:{key})")

    def _read(self, k: int) -> np.ndarray:
        chunk = np.asarray(self._frames[self._pos : self._pos + k]).copy()
        self._pos += chunk.shape[0]
        return chunk

    def state_dict(self) -> dict:
        return {"pos": self._pos}

    def load_state(self, state: dict) -> None:
        self._pos = int(state["pos"])

    def describe(self) -> str:
        return self._label


class LimitedSource(FrameSource):
    """Bound an inner source by frame count and/or wall-clock budget.

    Both bounds end the stream *cleanly* — :meth:`read` returns an
    empty chunk, so the pipeline flushes its stages and reports
    ``completed=True`` — which is what demos and load tests over an
    otherwise unbounded :class:`SyntheticWalkSource` need to terminate
    deterministically without killing the process (contrast
    ``limit_chunks``, which pauses mid-stream for a later resume).

    The frame bound is part of the stream's semantics (it decides where
    the stream *ends*) and therefore appears in :meth:`describe`; the
    time bound is a wall-clock property of one process and deliberately
    does not — a resumed run gets a fresh budget.

    Args:
        inner: the source being bounded.
        max_frames: total frames to deliver, or ``None`` for no frame
            bound.
        max_seconds: wall-clock budget measured from the first read, or
            ``None`` for no time bound.
        clock: monotonic time function (injectable for tests).
    """

    def __init__(
        self,
        inner: FrameSource,
        max_frames: int | None = None,
        max_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_frames is None and max_seconds is None:
            raise ConfigurationError(
                "LimitedSource needs max_frames and/or max_seconds"
            )
        if max_frames is not None and max_frames < 1:
            raise ConfigurationError(f"max_frames must be >= 1, got {max_frames}")
        if max_seconds is not None and max_seconds <= 0:
            raise ConfigurationError(f"max_seconds must be > 0, got {max_seconds}")
        self.inner = inner
        self.max_frames = None if max_frames is None else int(max_frames)
        self.max_seconds = None if max_seconds is None else float(max_seconds)
        self.clock = clock
        self.coord_shape = inner.coord_shape
        self.dtype = inner.dtype
        self._delivered = 0
        self._started_at: float | None = None

    def _read(self, k: int) -> np.ndarray:
        if self._started_at is None:
            self._started_at = self.clock()
        if (
            self.max_seconds is not None
            and self.clock() - self._started_at >= self.max_seconds
        ):
            return self._empty()
        if self.max_frames is not None:
            k = min(k, self.max_frames - self._delivered)
            if k <= 0:
                return self._empty()
        chunk = self.inner.read(k)
        self._delivered += chunk.shape[0]
        return chunk

    def state_dict(self) -> dict:
        return {"delivered": self._delivered, "inner": self.inner.state_dict()}

    def load_state(self, state: dict) -> None:
        self._delivered = int(state["delivered"])
        self.inner.load_state(state["inner"])

    def describe(self) -> str:
        return f"limited({self.inner.describe()}, max_frames={self.max_frames})"


class PushFrameSource(FrameSource):
    """Frames arrive by push; :meth:`read` serves the buffer, never blocks.

    The serve layer's ingest substrate: a network handler calls
    :meth:`push` with whatever a client delivered, and the pipeline
    drains full transport chunks via ``step()``/``pump()``.  An empty
    :meth:`read` means "nothing buffered *right now*", not end of
    stream, so a push source must be driven incrementally — never with
    ``StreamPipeline.run()``, which treats empty as exhaustion.

    Buffering is a bounded :class:`RingBuffer` under the tenant's
    backpressure policy: ``block`` refuses the overflow (the push
    reports how many frames were accepted, and the producer must resend
    the rest), ``drop-oldest`` keeps only the freshest frames, and
    ``error`` raises.  ``received`` counts the frames accepted into the
    stream's history — exactly the index a resuming producer must
    continue from.

    Args:
        coord_shape: per-frame coordinate shape.
        dtype: frame dtype.
        capacity: buffered-frame bound (the per-connection backpressure
            window).
        policy: overflow behaviour; see :class:`BackpressurePolicy`.
        label: identity used in :meth:`describe` and therefore in
            checkpoint fingerprints — give each tenant stream a unique,
            stable label.
    """

    def __init__(
        self,
        coord_shape: tuple[int, ...],
        dtype: "np.dtype | str",
        capacity: int = 4096,
        policy: "str | BackpressurePolicy" = BackpressurePolicy.BLOCK,
        label: str = "push",
    ) -> None:
        self.coord_shape = tuple(int(s) for s in coord_shape)
        self.dtype = np.dtype(dtype)
        self.policy = BackpressurePolicy.parse(policy)
        self._buffer = RingBuffer(capacity, self.policy)
        self._label = str(label)
        self._received = 0
        self._delivered = 0

    @property
    def received(self) -> int:
        """Frames accepted into the stream history so far."""
        return self._received

    @property
    def delivered(self) -> int:
        """Frames already handed to the pipeline."""
        return self._delivered

    @property
    def buffered(self) -> int:
        """Frames accepted but not yet read."""
        return len(self._buffer)

    @property
    def free(self) -> int:
        """Frames that can be pushed right now without overflow."""
        return self._buffer.free

    def push(self, frames: np.ndarray) -> int:
        """Offer a ``(k,) + coord_shape`` chunk; returns frames accepted.

        Under ``drop-oldest`` every offered frame counts as accepted
        (the evicted ones entered the history and were then superseded);
        under ``block`` the tail that does not fit is refused and must
        be offered again after the pipeline drains the buffer.
        """
        frames = np.asarray(frames)
        if frames.shape[1:] != self.coord_shape:
            raise DataFormatError(
                f"pushed frame shape {frames.shape[1:]} != {self.coord_shape}"
            )
        if frames.dtype != self.dtype:
            raise DataFormatError(
                f"pushed dtype {frames.dtype} != {self.dtype}"
            )
        accepted = self._buffer.push(frames)
        self._received += accepted
        return accepted

    def _read(self, k: int) -> np.ndarray:
        if len(self._buffer) == 0:
            return self._empty()
        chunk = self._buffer.pop(k)
        self._delivered += chunk.shape[0]
        return chunk

    def state_dict(self) -> dict:
        return {
            "received": self._received,
            "delivered": self._delivered,
            "buffer": self._buffer.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self._received = int(state["received"])
        self._delivered = int(state["delivered"])
        self._buffer.load_state(state["buffer"])

    def describe(self) -> str:
        return (
            f"{self._label}(shape={self.coord_shape}, dtype={self.dtype.str})"
        )


class DownlinkSource(FrameSource):
    """Frames of an inner source received through the CRC/ARQ downlink.

    Each frame's bytes are packetised and transferred over the
    Gilbert–Elliott burst channel with stop-and-wait ARQ
    (:class:`repro.ngst.downlink.ARQDownlink`); the receiver-side bytes
    are reassembled into the frame the pipeline sees.  CRC-clean
    corruption (≈2⁻¹⁶ per damaged packet) therefore shows up inline, as
    it would on a real link.  Each frame uses its own
    :func:`frame_rng`-seeded channel, keeping the stream chunk-invariant
    and resumable.

    A frame that exhausts its retransmission budget raises
    :class:`repro.exceptions.CodecError` — the stream, like the
    paper's Figure 1 link, has no out-of-band recovery path.

    Args:
        inner: the source whose frames are transmitted.
        config: packet framing and ARQ policy.
        seed: root entropy for the per-frame channel randomness.
    """

    def __init__(
        self,
        inner: FrameSource,
        config: DownlinkConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.inner = inner
        self.config = config or DownlinkConfig()
        self.seed = int(seed)
        self.coord_shape = inner.coord_shape
        self.dtype = inner.dtype
        self._next = 0
        self.n_transmissions = 0
        self.n_crc_rejections = 0
        self.n_undetected_errors = 0
        self.bits_on_wire = 0

    def _read(self, k: int) -> np.ndarray:
        frames = self.inner.read(k)
        out = np.empty_like(frames)
        for j in range(frames.shape[0]):
            link = ARQDownlink(
                self.config,
                seed=np.random.SeedSequence(
                    entropy=self.seed, spawn_key=(self._next + j,)
                ),
            )
            report = link.transmit(frames[j].tobytes())
            out[j] = np.frombuffer(report.delivered, dtype=self.dtype).reshape(
                self.coord_shape
            )
            self.n_transmissions += report.n_transmissions
            self.n_crc_rejections += report.n_crc_rejections
            self.n_undetected_errors += report.n_undetected_errors
            self.bits_on_wire += report.bits_on_wire
        self._next += frames.shape[0]
        return out

    def state_dict(self) -> dict:
        return {
            "next": self._next,
            "inner": self.inner.state_dict(),
            "n_transmissions": self.n_transmissions,
            "n_crc_rejections": self.n_crc_rejections,
            "n_undetected_errors": self.n_undetected_errors,
            "bits_on_wire": self.bits_on_wire,
        }

    def load_state(self, state: dict) -> None:
        self._next = int(state["next"])
        self.inner.load_state(state["inner"])
        self.n_transmissions = int(state["n_transmissions"])
        self.n_crc_rejections = int(state["n_crc_rejections"])
        self.n_undetected_errors = int(state["n_undetected_errors"])
        self.bits_on_wire = int(state["bits_on_wire"])

    def describe(self) -> str:
        return (
            f"downlink({self.inner.describe()}, "
            f"payload={self.config.payload_bytes}, seed={self.seed})"
        )
