"""Fragmentation of detector frames for distributed processing (§2.1).

"The detector has a 1024×1024 sensor array, and all the input images of
this resolution are fragmented into 128×128 pixel image segments and
handed down to the slaves for processing" — any frame size divisible by
the tile works; reassembly is the exact inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, DataFormatError

DEFAULT_TILE = 128


@dataclass(frozen=True)
class Fragment:
    """One image segment, addressed by its tile-grid position."""

    row: int
    col: int
    data: np.ndarray


def tile_grid(shape: tuple[int, ...], tile: int = DEFAULT_TILE) -> tuple[int, int]:
    """The ``(rows, cols)`` tile grid of a frame ``(H, W)`` or stack ``(N, H, W)``.

    Raises:
        ConfigurationError: if *tile* is below 1.
        DataFormatError: if *shape* is not 2-D or 3-D, or its frame is
            not divisible by *tile*.
    """
    if tile < 1:
        raise ConfigurationError(f"tile must be >= 1, got {tile}")
    if len(shape) not in (2, 3):
        raise DataFormatError(f"expected (H, W) or (N, H, W), got {len(shape)}-D")
    height, width = shape[-2:]
    if height % tile or width % tile:
        raise DataFormatError(
            f"frame {height}x{width} not divisible by tile {tile}"
        )
    return height // tile, width // tile


def fragment_stack(stack: np.ndarray, tile: int = DEFAULT_TILE) -> list[Fragment]:
    """Split a readout stack ``(N, H, W)`` (or frame ``(H, W)``) into tiles.

    Tiles carry the full temporal axis — each slave needs every readout
    of its segment for CR rejection and preprocessing.
    """
    stack = np.asarray(stack)
    rows, cols = tile_grid(stack.shape, tile)
    fragments = []
    for row in range(rows):
        for col in range(cols):
            window = (
                slice(row * tile, (row + 1) * tile),
                slice(col * tile, (col + 1) * tile),
            )
            data = stack[(...,) + window].copy()
            fragments.append(Fragment(row=row, col=col, data=data))
    return fragments


def reassemble(fragments: list[Fragment], tile: int = DEFAULT_TILE) -> np.ndarray:
    """Stitch fragments back into the full frame/stack.

    Raises :class:`DataFormatError` on missing, duplicate or
    inconsistently shaped fragments.
    """
    if not fragments:
        raise DataFormatError("no fragments to reassemble")
    shape0 = fragments[0].data.shape
    if any(f.data.shape != shape0 for f in fragments):
        raise DataFormatError("fragments have inconsistent shapes")
    if shape0[-2:] != (tile, tile):
        raise DataFormatError(f"fragments are {shape0[-2:]}, expected {(tile, tile)}")
    rows = max(f.row for f in fragments) + 1
    cols = max(f.col for f in fragments) + 1
    seen = {(f.row, f.col) for f in fragments}
    if len(seen) != len(fragments):
        raise DataFormatError("duplicate fragment positions")
    if len(seen) != rows * cols:
        missing = {(r, c) for r in range(rows) for c in range(cols)} - seen
        raise DataFormatError(f"missing fragments: {sorted(missing)[:4]}...")
    lead = shape0[:-2]
    out = np.empty(lead + (rows * tile, cols * tile), dtype=fragments[0].data.dtype)
    for f in fragments:
        window = (
            slice(f.row * tile, (f.row + 1) * tile),
            slice(f.col * tile, (f.col + 1) * tile),
        )
        out[(...,) + window] = f.data
    return out
