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
state.  :func:`frame_rng` builds that Generator for one frame;
:class:`FrameSeeder` reseeds one Generator to the same states a chunk
of frames at a time, and is what the sources and stages use.

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

import math
import time
from pathlib import Path
from typing import Callable, Iterator

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


def check_seed(seed: int, name: str = "seed") -> int:
    """*seed* as an int, or a :class:`ConfigurationError` if negative."""
    seed = int(seed)
    if seed < 0:
        raise ConfigurationError(f"{name} must be a non-negative integer, got {seed}")
    return seed


# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

#: Frames whose seeding words one block of array work computes: bounds
#: the seeder's memory when a whole stack is injected at once.
_SEED_BLOCK = 1024


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _u32(values) -> np.ndarray:
    """A ``(n, 1)`` uint32 column, for broadcasting over frames."""
    return np.array(values, dtype=np.uint32).reshape(-1, 1)


class FrameSeeder:
    """:func:`frame_rng` for one seed, a chunk of frames at a time.

    ``generators(start, k)`` yields Generators whose states equal
    ``frame_rng(seed, start + j)`` for ``j < k``, so every draw is
    byte-identical, at a fraction of the cost.  numpy derives that
    state in three steps, each split here by what it depends on:

    * ``SeedSequence`` mixes the seed's uint32 words into a 4-word pool,
      then the frame index's spawn-key words.  The seed part runs once,
      here; the spawn-key words (one below 2³², two from 2³² on) are
      hashed into the pool for all frames of a block as ``(4, n)``
      uint32 arrays.
    * ``generate_state`` hashes the pool into 8 words, again as arrays.
    * PCG64 seeds its 128-bit state from those words with two LCG steps,
      computed per frame on Python ints.

    The seeder owns one ``PCG64`` and its ``Generator``, and sets the
    state through ``bit_generator.state`` for each frame.  **A yielded
    Generator is valid only for its own frame**: requesting the next
    item reseeds the same object.  Draw everything frame *j* needs
    before advancing, and never keep the Generator.  A seeder is as
    stateful as the Generator it owns, so each stage or source needs
    its own; never share one across threads.

    Args:
        seed: root entropy of the per-frame spawn tree (any non-negative
            int; wide seeds mix their extra words in as numpy does).
    """

    def __init__(self, seed: int) -> None:
        self.seed = check_seed(seed)
        entropy = []
        value = self.seed
        while True:
            entropy.append(value & _MASK32)
            value >>= 32
            if not value:
                break
        # A spawned SeedSequence zero-pads short entropy to the pool size.
        entropy += [0] * (_POOL_SIZE - len(entropy))
        hash_const = _INIT_A

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = (hash_const * _MULT_A) & _MASK32
            value = (value * hash_const) & _MASK32
            return value ^ (value >> 16)

        pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], hashmix(word))
        # hashmix's (xor, multiply) constants for each pool word, for the
        # spawn key's first and second word.
        self._key_consts = []
        for _ in range(2):
            xors, mults = [], []
            for _ in range(_POOL_SIZE):
                xors.append(hash_const)
                hash_const = (hash_const * _MULT_A) & _MASK32
                mults.append(hash_const)
            self._key_consts.append((_u32(xors), _u32(mults)))
        self._mixed_pool = _u32([(_MIX_MULT_L * p) & _MASK32 for p in pool])
        xors, mults, hash_const = [], [], _INIT_B
        for _ in range(8):
            xors.append(hash_const)
            hash_const = (hash_const * _MULT_B) & _MASK32
            mults.append(hash_const)
        self._state_consts = (_u32(xors), _u32(mults))
        self._bit_generator = np.random.PCG64()
        self._generator = np.random.Generator(self._bit_generator)

    def _seed_words(self, start: int, n: int) -> list[list[int]]:
        """PCG64's four uint64 seed words for frames ``start .. start+n-1``,
        as ``[seed_hi, seed_lo, inc_hi, inc_lo]`` lists of n ints."""
        index = np.arange(start, start + n, dtype=np.uint64)
        xors, mults = self._key_consts[0]
        pool = self._absorb(self._mixed_pool, index.astype(np.uint32), xors, mults)
        if start + n > 2**32:
            # Frames from 2**32 on carry a second spawn-key word.
            xors, mults = self._key_consts[1]
            high = (index >> np.uint64(32)).astype(np.uint32)
            wide = self._absorb(np.uint32(_MIX_MULT_L) * pool, high, xors, mults)
            pool = np.where(high > 0, wide, pool)
        xors, mults = self._state_consts
        state = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ xors
        state *= mults
        state ^= state >> np.uint32(16)
        state = state.astype(np.uint64)
        # generate_state's uint32 words pair up low word first.
        return (state[0::2] | (state[1::2] << np.uint64(32))).tolist()

    @staticmethod
    def _absorb(mixed_pool, word, xors, mults) -> np.ndarray:
        """``mix(pool, hashmix(word))`` for each pool word; *mixed_pool*
        is ``_MIX_MULT_L * pool``, pre-multiplied."""
        hashed = (word ^ xors) * mults
        hashed ^= hashed >> np.uint32(16)
        hashed *= np.uint32(_MIX_MULT_R)
        result = mixed_pool - hashed
        result ^= result >> np.uint32(16)
        return result

    def generators(self, start: int, k: int) -> Iterator[np.random.Generator]:
        """Yield the Generator of frames ``start, ..., start + k - 1``.

        Each item is this seeder's one Generator, reseeded to
        ``frame_rng(seed, start + j)``'s state and valid only until the
        next item is requested.
        """
        if start < 0 or start + k > 2**64:
            raise ConfigurationError(
                f"frame indices must lie in [0, 2**64), got {start}..{start + k - 1}"
            )
        for lo in range(start, start + k, _SEED_BLOCK):
            words = self._seed_words(lo, min(_SEED_BLOCK, start + k - lo))
            for seed_hi, seed_lo, inc_hi, inc_lo in zip(*words):
                # pcg_setseq_128_srandom_r: inc = 2·initseq + 1, then two
                # LCG steps from 0 with the initial state added between.
                inc = (((inc_hi << 64) | inc_lo) << 1 | 1) & _MASK128
                state = ((((seed_hi << 64) | seed_lo) + inc) * _PCG_MULT + inc) & _MASK128
                self._bit_generator.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                yield self._generator


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

        ``m == 0`` signals exhaustion.  ``k`` must be >= 1.  The array
        is fresh and the caller owns it: a
        :class:`~repro.stream.pipeline.StreamPipeline` hands it to its
        stages without a copy.
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
    step of frame *i* is drawn from :func:`frame_rng` child *i* (through
    the source's :class:`FrameSeeder`), which makes the stream
    chunk-invariant and the source resumable from a checkpointed
    ``(index, walk-state)`` pair.

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
        if any(s < 1 for s in self.shape):
            raise ConfigurationError(
                f"shape dimensions must be >= 1, got {list(self.shape)}"
            )
        self.config = config or NGSTDatasetConfig()
        self._seeder = FrameSeeder(seed)
        self.seed = self._seeder.seed
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
        for j, rng in enumerate(self._seeder.generators(self._next, k)):
            if self._next + j == 0:
                walk[j] = float(cfg.initial_value)
            else:
                walk[j] = rng.normal(0.0, cfg.sigma, self.shape)
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
        if max_seconds is not None and not 0 < max_seconds < math.inf:
            raise ConfigurationError(
                f"max_seconds must be finite and > 0, got {max_seconds}"
            )
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
        self._seeder = FrameSeeder(seed)
        self.seed = self._seeder.seed
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
        rngs = self._seeder.generators(self._next, frames.shape[0])
        for j, rng in enumerate(rngs):
            report = ARQDownlink(self.config, seed=rng).transmit(frames[j].tobytes())
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
