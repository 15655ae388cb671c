"""Bounded frame ring buffers with explicit backpressure policies.

A :class:`RingBuffer` holds at most ``capacity`` frames in a
preallocated contiguous ring (no per-frame allocations on the steady
path) and makes the overflow behaviour an explicit, named policy
instead of an accident.  Two buffers use it: the serve ingest buffer
inside :class:`~repro.stream.source.PushFrameSource`, under the
tenant's policy, and the pristine-frame alignment buffer of
:class:`~repro.stream.pipeline.StreamPipeline`, under ``error``.

* ``block`` — the buffer accepts only what fits and reports how many
  frames it took; the caller must retry the rest later (a serve client
  whose pushes outrun the pipeline).
* ``drop-oldest`` — the oldest buffered frames are evicted to make
  room; the eviction count is tracked.  This is the lossy real-time
  mode (keep the freshest readouts when downstream stalls).
* ``error`` — overflow raises :class:`BufferOverflowError`.  Used for
  internal invariants: a buffer sized to a proven bound turns a broken
  bound into a loud failure instead of silent unbounded growth.

Occupancy accounting (``high_water``, pushed/popped/dropped/refused
counters) is exposed as :class:`BufferStats`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.exceptions import BufferOverflowError, ConfigurationError


class BackpressurePolicy(enum.Enum):
    """What a :class:`RingBuffer` does when a push exceeds its capacity."""

    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"
    ERROR = "error"

    @classmethod
    def parse(cls, name: "str | BackpressurePolicy") -> "BackpressurePolicy":
        """Accept either an enum member or its CLI spelling."""
        if isinstance(name, cls):
            return name
        for member in cls:
            if member.value == name:
                return member
        raise ConfigurationError(
            f"unknown backpressure policy {name!r}; "
            f"choose from {[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class BufferStats:
    """Lifetime accounting for one :class:`RingBuffer`.

    Attributes:
        capacity: maximum frames the buffer can hold.
        depth: frames currently buffered.
        high_water: maximum simultaneous occupancy ever observed.
        n_pushed: frames accepted into the buffer.
        n_popped: frames handed downstream.
        n_dropped: frames evicted by the ``drop-oldest`` policy.
        n_refused: frames turned away by the ``block`` policy.
    """

    capacity: int
    depth: int
    high_water: int
    n_pushed: int
    n_popped: int
    n_dropped: int
    n_refused: int


class RingBuffer:
    """A bounded FIFO of equally shaped frames with policy-driven overflow.

    Frame storage is lazily allocated on the first push (the coordinate
    shape and dtype come from the frames themselves) as one
    ``(capacity,) + coord_shape`` block, so a buffer's memory footprint
    is fixed by its capacity — the load-bearing property behind the
    pipeline's O(chunk + window) bound.

    Args:
        capacity: maximum number of frames held at once (>= 1).
        policy: overflow behaviour; see :class:`BackpressurePolicy`.
    """

    def __init__(
        self,
        capacity: int,
        policy: "str | BackpressurePolicy" = BackpressurePolicy.BLOCK,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.policy = BackpressurePolicy.parse(policy)
        self._storage: np.ndarray | None = None
        self._head = 0  # index of the oldest frame
        self._size = 0
        self._high_water = 0
        self._n_pushed = 0
        self._n_popped = 0
        self._n_dropped = 0
        self._n_refused = 0

    def __len__(self) -> int:
        return self._size

    @property
    def free(self) -> int:
        """Frames that can be pushed right now without overflow."""
        return self.capacity - self._size

    @property
    def stats(self) -> BufferStats:
        """A snapshot of the buffer's occupancy accounting."""
        return BufferStats(
            capacity=self.capacity,
            depth=self._size,
            high_water=self._high_water,
            n_pushed=self._n_pushed,
            n_popped=self._n_popped,
            n_dropped=self._n_dropped,
            n_refused=self._n_refused,
        )

    def _ensure_storage(self, frames: np.ndarray) -> None:
        if self._storage is None:
            self._storage = np.empty(
                (self.capacity,) + frames.shape[1:], dtype=frames.dtype
            )
        elif self._storage.shape[1:] != frames.shape[1:]:
            raise ConfigurationError(
                f"frame shape {frames.shape[1:]} does not match the buffer's "
                f"established shape {self._storage.shape[1:]}"
            )

    def _write(self, frames: np.ndarray) -> None:
        """Copy *frames* (guaranteed to fit) into the ring."""
        assert self._storage is not None
        k = frames.shape[0]
        tail = (self._head + self._size) % self.capacity
        first = min(k, self.capacity - tail)
        self._storage[tail : tail + first] = frames[:first]
        if first < k:
            self._storage[: k - first] = frames[first:]
        self._size += k
        self._n_pushed += k
        self._high_water = max(self._high_water, self._size)

    def push(self, frames: np.ndarray) -> int:
        """Offer a ``(k,) + coord_shape`` chunk; returns frames accepted.

        Under ``block`` the leading frames that fit are accepted and the
        rest refused (the return value tells the caller how far it got).
        Under ``drop-oldest`` everything is accepted and the oldest
        buffered frames are evicted to make room.  Under ``error`` an
        overflowing push raises :class:`BufferOverflowError` without
        accepting anything.
        """
        frames = np.asarray(frames)
        if frames.ndim < 1:
            raise ConfigurationError("push expects a (k,) + coord_shape chunk")
        k = frames.shape[0]
        if k == 0:
            return 0
        self._ensure_storage(frames)
        if k > self.capacity and self.policy is not BackpressurePolicy.DROP_OLDEST:
            if self.policy is BackpressurePolicy.ERROR:
                raise BufferOverflowError(
                    f"chunk of {k} frame(s) exceeds buffer capacity {self.capacity}"
                )
            # block: accept the head that fits (if any room at all).
        if self.policy is BackpressurePolicy.BLOCK:
            accepted = min(k, self.free)
            self._n_refused += k - accepted
            if accepted:
                self._write(frames[:accepted])
            return accepted
        if self.policy is BackpressurePolicy.ERROR:
            if k > self.free:
                raise BufferOverflowError(
                    f"push of {k} frame(s) overflows buffer "
                    f"({self._size}/{self.capacity} used)"
                )
            self._write(frames)
            return k
        # drop-oldest
        if k >= self.capacity:
            # The chunk alone fills the ring: everything buffered and the
            # chunk's own head are superseded by the freshest frames.
            self._n_dropped += self._size + (k - self.capacity)
            self._n_pushed += k - self.capacity  # pushed-then-superseded
            self._head = 0
            self._size = 0
            self._write(frames[k - self.capacity :])
            return k
        overflow = max(0, k - self.free)
        if overflow:
            self._head = (self._head + overflow) % self.capacity
            self._size -= overflow
            self._n_dropped += overflow
        self._write(frames)
        return k

    def pop(self, k: int | None = None) -> np.ndarray:
        """Remove and return the ``min(k, len)`` oldest frames, FIFO order.

        With ``k=None`` the whole buffer is drained.  Returns a fresh
        contiguous ``(m,) + coord_shape`` array (possibly empty).
        """
        if self._storage is None:
            raise BufferOverflowError("cannot pop from a never-pushed buffer")
        m = self._size if k is None else max(0, min(int(k), self._size))
        out = np.empty((m,) + self._storage.shape[1:], dtype=self._storage.dtype)
        first = min(m, self.capacity - self._head)
        out[:first] = self._storage[self._head : self._head + first]
        if first < m:
            out[first:] = self._storage[: m - first]
        self._head = (self._head + m) % self.capacity
        self._size -= m
        self._n_popped += m
        return out

    def peek(self, k: int | None = None) -> np.ndarray:
        """Like :meth:`pop` but leaves the frames buffered."""
        head, size, popped = self._head, self._size, self._n_popped
        out = self.pop(k)
        self._head, self._size, self._n_popped = head, size, popped
        return out

    def state_dict(self) -> dict:
        """JSON-serializable exact state (frames included) for checkpoints."""
        from repro.stream.checkpoint import encode_array

        frames = self.peek() if self._storage is not None else None
        return {
            "frames": None if frames is None else encode_array(frames),
            "high_water": self._high_water,
            "n_pushed": self._n_pushed,
            "n_popped": self._n_popped,
            "n_dropped": self._n_dropped,
            "n_refused": self._n_refused,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly."""
        from repro.stream.checkpoint import decode_array

        self._storage = None
        self._head = 0
        self._size = 0
        if state.get("frames") is not None:
            frames = decode_array(state["frames"])
            if frames.shape[0]:
                self._ensure_storage(frames)
                self._write(frames)
        # The counters below overwrite whatever _write just accumulated.
        self._high_water = int(state["high_water"])
        self._n_pushed = int(state["n_pushed"])
        self._n_popped = int(state["n_popped"])
        self._n_dropped = int(state["n_dropped"])
        self._n_refused = int(state["n_refused"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RingBuffer(capacity={self.capacity}, policy={self.policy.value!r}, "
            f"depth={self._size})"
        )
