"""Sliding-window bitwise majority voting (Algorithm 3, §4.2).

Instead of discarding an outlier pixel's entire word — and with it the
information of its 15 uncorrupted bits — every bit position votes
independently against the bits at the same binary weight in the
neighbouring variants.  Each bit becomes the majority of {previous,
current, next}; the paper pads the sequence with ``P(0) = P(3)`` and
``P(N+1) = P(N−2)`` (1-based), which we reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core import bitops
from repro.exceptions import ConfigurationError, DataFormatError
from repro.native import dispatch as _dispatch


def _majority3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-bit majority of three equal-dtype unsigned arrays."""
    return (a & b) | (b & c) | (a & c)


def majority_vote_temporal(pixels: np.ndarray) -> np.ndarray:
    """Bitwise majority voting along the temporal axis, window of three.

    Args:
        pixels: array of shape ``(N, ...)`` with an unsigned dtype, N >= 4
            (the paper's edge padding references P(3) and P(N−2)).

    Returns the voted copy: every bit of every pixel is the majority of
    that bit in the pixel and its two temporal neighbours.
    """
    bitops.require_unsigned(pixels, "pixels")
    n = pixels.shape[0] if pixels.ndim else 0
    if n < 4:
        raise DataFormatError(f"majority voting needs N >= 4 variants, got {n}")
    # Paper's padding (1-based): P(0) = P(3), P(N+1) = P(N-2).  In
    # 0-based terms the virtual predecessor of index 0 is pixels[2] and
    # the virtual successor of index N-1 is pixels[N-3].
    prev = np.concatenate([pixels[2][None], pixels[:-1]], axis=0)
    nxt = np.concatenate([pixels[1:], pixels[n - 3][None]], axis=0)
    return _majority3(prev, pixels, nxt)


def majority_vote_spatial(field: np.ndarray, axis_pairs: bool = True) -> np.ndarray:
    """The §7.3 OTIS adaptation: per-bit majority over spatial neighbours.

    Operates on the float32 bit patterns (or raw unsigned words).  Each
    bit becomes the majority of {left, centre, right} and then of
    {up, centre', down} — two sequential 3-way votes, the separable
    2-D analogue of Algorithm 3.  Borders are reflected.

    Args:
        field: 2-D float32 field, 3-D float32 cube, or unsigned 2-D array.
        axis_pairs: when False, only the horizontal vote runs (useful for
            ablations).
    """
    field = np.asarray(field)
    if field.dtype == np.float32:
        if field.ndim == 3:
            return np.stack([majority_vote_spatial(b, axis_pairs) for b in field])
        bits = bitops.float32_to_bits(np.ascontiguousarray(field))
        voted = majority_vote_spatial(bits, axis_pairs)
        return bitops.bits_to_float32(voted)
    bitops.require_unsigned(field, "field")
    if field.ndim != 2:
        raise DataFormatError(f"expected a 2-D field, got {field.ndim}-D")
    if min(field.shape) < 3:
        raise DataFormatError(f"field {field.shape} too small for a 3-window")
    if field.shape[1] >= 3:
        left = np.concatenate([field[:, 2:3], field[:, :-1]], axis=1)
        right = np.concatenate([field[:, 1:], field[:, -3:-2]], axis=1)
        field = _majority3(left, field, right)
    if axis_pairs and field.shape[0] >= 3:
        up = np.concatenate([field[2:3, :], field[:-1, :]], axis=0)
        down = np.concatenate([field[1:, :], field[-3:-2, :]], axis=0)
        field = _majority3(up, field, down)
    return field


def majority_vote_window(pixels: np.ndarray, window: int = 3) -> np.ndarray:
    """Generalised bitwise majority over an odd window along axis 0.

    For ``window == 3`` this matches :func:`majority_vote_temporal` except
    at the paper-specific edge padding (reflection is used here).  Wider
    windows serve the ablation benches.  Validation happens here; the
    vote itself runs on the selected kernel tier (the C tier holds the
    per-bit window count in a bit-sliced 4-level counter, so windows
    wider than 15 automatically demote to the NumPy tier).
    """
    if window < 3 or window % 2 == 0:
        raise ConfigurationError(f"window must be odd and >= 3, got {window}")
    bitops.require_unsigned(pixels, "pixels")
    n = pixels.shape[0] if pixels.ndim else 0
    if n < window:
        raise DataFormatError(f"need N >= {window} variants, got {n}")
    return _dispatch.call("majority_vote_window", pixels, window)


def _numpy_majority_vote_window(pixels: np.ndarray, window: int = 3) -> np.ndarray:
    """NumPy tier for :func:`majority_vote_window` (bit-plane counts)."""
    n = pixels.shape[0]
    half = window // 2
    planes = bitops.to_bit_planes(pixels)
    # Clamped edges are an edge-pad of the temporal axis; the window sum
    # is then a stack of shifted views — no per-offset gather copies.
    pad = [(0, 0), (half, half)] + [(0, 0)] * (planes.ndim - 2)
    padded = np.pad(planes, pad, mode="edge")
    counts = np.zeros(planes.shape, dtype=np.int16)
    for k in range(window):
        counts += padded[:, k : k + n]
    majority_planes = (counts > half).astype(np.uint8)
    return bitops.from_bit_planes(majority_planes, pixels.dtype)


def _reference_majority_vote_window(pixels: np.ndarray, window: int = 3) -> np.ndarray:
    """Pre-vectorization oracle for :func:`majority_vote_window`."""
    if window < 3 or window % 2 == 0:
        raise ConfigurationError(f"window must be odd and >= 3, got {window}")
    bitops.require_unsigned(pixels, "pixels")
    n = pixels.shape[0] if pixels.ndim else 0
    if n < window:
        raise DataFormatError(f"need N >= {window} variants, got {n}")
    half = window // 2
    nbits = bitops.bit_width(pixels.dtype)
    counts = np.zeros((nbits,) + pixels.shape, dtype=np.int16)
    planes = bitops.to_bit_planes(pixels)
    for offset in range(-half, half + 1):
        idx = np.clip(np.arange(n) + offset, 0, n - 1)
        counts += planes[:, idx]
    majority_planes = (counts > half).astype(np.uint8)
    return bitops.from_bit_planes(majority_planes, pixels.dtype)


_dispatch.register(
    "majority_vote_window",
    numpy_impl=_numpy_majority_vote_window,
    reference_impl=_reference_majority_vote_window,
)
