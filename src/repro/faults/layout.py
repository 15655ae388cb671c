"""Mapping between data words and the 2-D physical memory bit grid.

The correlated fault model of §2.2.3 is defined over the *memory
organisation*: runs of flips propagate horizontally and vertically
through the physical bit grid.  How badly such a block fault damages
logically neighbouring pixels therefore depends on the mapping from
words to grid positions.

§8 recommends "storing the neighboring pixels using a preset mapping
into different physical regions in the memory organization" so that a
contiguous block fault does not wipe out the temporal/spatial
redundancy the preprocessing relies on.  :class:`InterleavedLayout`
implements that recommendation; :class:`RowMajorLayout` is the naive
contiguous placement it improves upon.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.core import bitops
from repro.exceptions import ConfigurationError, DataFormatError


class MemoryLayout(ABC):
    """Bijection between (word, bit) coordinates and grid positions."""

    def __init__(self, row_words: int = 64) -> None:
        if row_words < 1:
            raise ConfigurationError(f"row_words must be >= 1, got {row_words}")
        self.row_words = row_words

    def grid_shape(self, n_words: int, nbits: int) -> tuple[int, int]:
        """Shape of the physical bit grid holding ``n_words`` words."""
        row_bits = self.row_words * nbits
        n_rows = math.ceil(n_words * nbits / row_bits)
        return n_rows, row_bits

    def cache_key_parts(self) -> tuple:
        """Canonical identity of this layout for artifact cache keys.

        Subclasses with extra placement parameters must extend the
        tuple; two layouts that place bits differently must never share
        key parts.
        """
        return (type(self).__name__, self.row_words)

    @abstractmethod
    def word_permutation(self, n_words: int) -> np.ndarray:
        """Physical word slot for each logical word index."""

    def bit_positions(self, n_words: int, nbits: int) -> tuple[np.ndarray, np.ndarray]:
        """Grid (rows, cols) of every bit, shape ``(n_words, nbits)``.

        Bit index 0 within a word is the MSB (leftmost in the physical
        word), matching how memory stores the word's bytes in order.
        """
        perm = self.word_permutation(n_words)
        _, row_bits = self.grid_shape(n_words, nbits)
        linear = perm[:, None] * nbits + np.arange(nbits)[None, :]
        return linear // row_bits, linear % row_bits

    def flip_mask_from_grid(
        self, flip_grid: np.ndarray, n_words: int, nbits: int
    ) -> np.ndarray:
        """Collapse a boolean flip grid into per-word uint64 XOR masks.

        Physical slot ``s`` holds raster bits ``s * nbits`` to
        ``s * nbits + nbits - 1`` of the grid, so the raster stream packs
        straight into slot words, and logical word ``w`` takes slot
        ``word_permutation(n_words)[w]``.  *flip_grid* must be a bool
        array of shape ``grid_shape(n_words, nbits)``.
        """
        shape = self.grid_shape(n_words, nbits)
        if flip_grid.dtype != np.bool_ or flip_grid.shape != shape:
            raise DataFormatError(
                f"flip grid must be bool of shape {shape}, "
                f"got {flip_grid.dtype} of shape {flip_grid.shape}"
            )
        stream = flip_grid.reshape(-1)[: n_words * nbits]
        slot_words = bitops.pack_words(stream, nbits)
        return slot_words[self.word_permutation(n_words)].astype(np.uint64)


def _reference_flip_mask_from_grid(
    layout: MemoryLayout, flip_grid: np.ndarray, n_words: int, nbits: int
) -> np.ndarray:
    """Per-bit gather oracle for :meth:`MemoryLayout.flip_mask_from_grid`."""
    rows, cols = layout.bit_positions(n_words, nbits)
    flips = flip_grid[rows, cols]
    weights = np.uint64(1) << np.arange(nbits - 1, -1, -1, dtype=np.uint64)
    return (flips.astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)


class RowMajorLayout(MemoryLayout):
    """Naive contiguous placement: logical word order == physical order."""

    def word_permutation(self, n_words: int) -> np.ndarray:
        return np.arange(n_words, dtype=np.intp)


class PixelMajorLayout(MemoryLayout):
    """Each pixel's N temporal variants stored contiguously.

    This is the cache-friendly layout a naive implementation chooses for
    per-pixel temporal processing — and exactly the placement §8 warns
    about: one contiguous block fault (or one transit burst) wipes out a
    pixel's *entire* temporal redundancy group at once.

    Logical word order is assumed to be time-major (the ``(N, ...)``
    ravel used throughout this library); the permutation transposes it
    so that the variants of each coordinate become physically adjacent.
    """

    def __init__(self, n_variants: int, row_words: int = 64) -> None:
        super().__init__(row_words)
        if n_variants < 1:
            raise ConfigurationError(f"n_variants must be >= 1, got {n_variants}")
        self.n_variants = n_variants

    def cache_key_parts(self) -> tuple:
        """Layout identity including the variant grouping."""
        return (type(self).__name__, self.row_words, self.n_variants)

    def word_permutation(self, n_words: int) -> np.ndarray:
        if n_words % self.n_variants:
            raise ConfigurationError(
                f"{n_words} words do not divide into {self.n_variants} variants"
            )
        n_coords = n_words // self.n_variants
        index = np.arange(n_words, dtype=np.int64)
        time_index = index // n_coords
        coord_index = index % n_coords
        return (coord_index * self.n_variants + time_index).astype(np.intp)


class InterleavedLayout(MemoryLayout):
    """§8's recommendation: scatter neighbouring words across memory.

    Logical word *w* is placed at physical slot ``(w * stride) mod
    n_words`` with a stride chosen coprime to the word count, so words
    that are temporal/spatial neighbours land far apart in the physical
    grid and a contiguous block fault touches at most one of them.
    """

    def __init__(self, row_words: int = 64, stride: int | None = None) -> None:
        super().__init__(row_words)
        if stride is not None and stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        self._stride = stride

    def cache_key_parts(self) -> tuple:
        """Layout identity including the configured stride."""
        return (type(self).__name__, self.row_words, self._stride)

    def effective_stride(self, n_words: int) -> int:
        """The stride actually used: the configured one nudged to be
        coprime with ``n_words`` (a non-coprime stride is not a bijection).
        """
        stride = self._stride if self._stride is not None else max(1, n_words // 7)
        while math.gcd(stride, n_words) != 1:
            stride += 1
        return stride

    def word_permutation(self, n_words: int) -> np.ndarray:
        stride = self.effective_stride(n_words)
        return (np.arange(n_words, dtype=np.int64) * stride % n_words).astype(np.intp)
