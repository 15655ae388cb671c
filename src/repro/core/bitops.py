"""Bit-manipulation primitives shared by the preprocessing algorithms.

All functions operate on numpy arrays of unsigned integers and are fully
vectorised.  Pixels in the NGST benchmark are 16-bit unsigned integers;
OTIS radiance samples are 32-bit IEEE-754 floats whose *bit patterns* are
manipulated as ``uint32``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DataFormatError
from repro.native import dispatch as _dispatch

#: Number of bits per supported unsigned dtype.
BITS_PER_DTYPE = {
    np.dtype(np.uint8): 8,
    np.dtype(np.uint16): 16,
    np.dtype(np.uint32): 32,
    np.dtype(np.uint64): 64,
}


def bit_width(dtype: np.dtype) -> int:
    """Return the number of bits of an unsigned integer dtype.

    Raises :class:`DataFormatError` for anything that is not one of the
    supported unsigned dtypes.
    """
    try:
        return BITS_PER_DTYPE[np.dtype(dtype)]
    except KeyError:
        raise DataFormatError(f"unsupported unsigned dtype: {dtype!r}") from None


def require_unsigned(arr: np.ndarray, name: str = "array") -> np.ndarray:
    """Validate that *arr* is a numpy array with a supported unsigned dtype."""
    if not isinstance(arr, np.ndarray):
        raise DataFormatError(f"{name} must be a numpy array, got {type(arr).__name__}")
    if arr.dtype not in BITS_PER_DTYPE:
        if arr.dtype.kind == "u" and not arr.dtype.isnative:
            raise DataFormatError(
                f"{name} must be in native byte order, got byte-swapped "
                f"{arr.dtype.str}; convert with "
                f".astype({arr.dtype.newbyteorder('=').str!r})"
            )
        raise DataFormatError(
            f"{name} must have an unsigned integer dtype, got {arr.dtype}"
        )
    return arr


def _smear_right(v: np.ndarray) -> np.ndarray:
    """Propagate each element's highest set bit into every lower position.

    Six shift-or passes cover the full 64-bit width, so the result has all
    bits at or below the highest set bit equal to one (0 stays 0).
    """
    for shift in (1, 2, 4, 8, 16, 32):
        v = v | (v >> np.uint64(shift))
    return v


def ceil_pow2(values: np.ndarray | int) -> np.ndarray | int:
    """Smallest power of two greater than or equal to *values*.

    Zero maps to 1 (the smallest representable power, ``2**0``) which is the
    natural behaviour for threshold derivation: a zero XOR statistic means
    the lowest possible cut-off.  Works element-wise on arrays.

    >>> ceil_pow2(np.array([0, 1, 2, 3, 4, 5, 1023])).tolist()
    [1, 1, 2, 4, 4, 8, 1024]
    """
    scalar = np.isscalar(values)
    v = np.atleast_1d(np.asarray(values, dtype=np.uint64))
    out = np.ones_like(v)
    nz = v > 1
    # Smearing (v - 1) yields a block of ones up to the enclosing power's
    # exponent; adding one lands exactly on that power of two.
    out[nz] = _smear_right(v[nz] - np.uint64(1)) + np.uint64(1)
    if scalar:
        return int(out[0])
    return out


def _reference_ceil_pow2(values: np.ndarray | int) -> np.ndarray | int:
    """Pre-vectorization oracle for :func:`ceil_pow2` (per-bit shift loop)."""
    scalar = np.isscalar(values)
    v = np.atleast_1d(np.asarray(values, dtype=np.uint64))
    out = np.ones_like(v)
    nz = v > 1
    shifted = v[nz] - 1
    exponent = np.zeros(shifted.shape, dtype=np.uint64)
    while np.any(shifted):
        exponent[shifted > 0] += 1
        shifted = shifted >> 1
    out[nz] = np.uint64(1) << exponent
    if scalar:
        return int(out[0])
    return out


def mask_at_or_above(threshold_pow2: np.ndarray | int, nbits: int) -> np.ndarray | int:
    """Mask selecting every bit of weight >= ``threshold_pow2``.

    ``threshold_pow2`` must be a power of two (the ``V_val`` of the paper).
    The result has ones in every bit position whose binary weight is at
    least the threshold, i.e. ``full_mask XOR (threshold - 1)`` in the
    paper's notation.

    >>> hex(mask_at_or_above(8, 16))
    '0xfff8'
    """
    if nbits not in (8, 16, 32, 64):
        raise DataFormatError(f"nbits must be 8/16/32/64, got {nbits}")
    full = (1 << nbits) - 1
    scalar = np.isscalar(threshold_pow2)
    t = np.atleast_1d(np.asarray(threshold_pow2, dtype=np.uint64))
    if np.any(t == 0) or np.any((t & (t - 1)) != 0):
        raise DataFormatError("threshold must be a nonzero power of two")
    masks = (np.uint64(full) ^ (t - np.uint64(1))) & np.uint64(full)
    if scalar:
        return int(masks[0])
    return masks


def popcount(arr: np.ndarray) -> np.ndarray:
    """Number of set bits per element (vectorised)."""
    require_unsigned(arr)
    return np.bitwise_count(arr)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise Hamming distance between two equal-dtype arrays."""
    require_unsigned(a, "a")
    require_unsigned(b, "b")
    if a.dtype != b.dtype:
        raise DataFormatError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    return np.bitwise_count(np.bitwise_xor(a, b))


def float32_to_bits(arr: np.ndarray) -> np.ndarray:
    """Reinterpret a float32 array as its raw uint32 bit patterns."""
    arr = np.asarray(arr)
    if arr.dtype != np.float32:
        raise DataFormatError(f"expected float32, got {arr.dtype}")
    return arr.view(np.uint32)


def bits_to_float32(arr: np.ndarray) -> np.ndarray:
    """Reinterpret a uint32 array as IEEE-754 float32 values."""
    arr = np.asarray(arr)
    if arr.dtype != np.uint32:
        raise DataFormatError(f"expected uint32, got {arr.dtype}")
    return arr.view(np.float32)


def bit_plane(arr: np.ndarray, position: int) -> np.ndarray:
    """Extract bit plane *position* (0 = LSB) as a uint8 array of 0/1."""
    require_unsigned(arr)
    nbits = bit_width(arr.dtype)
    if not 0 <= position < nbits:
        raise DataFormatError(f"bit position {position} outside [0, {nbits})")
    return ((arr >> np.asarray(position, dtype=arr.dtype)) & np.asarray(1, dtype=arr.dtype)).astype(np.uint8)


def to_bit_planes(arr: np.ndarray) -> np.ndarray:
    """Decompose into a stack of bit planes, shape ``(nbits,) + arr.shape``.

    Plane index 0 is the most significant bit, matching the paper's
    ``P(i, j)`` notation where ``j`` is the offset from the MSB.
    Validation happens here; the transform itself runs on the selected
    kernel tier.
    """
    require_unsigned(arr)
    return _dispatch.call("to_bit_planes", arr)


def _numpy_to_bit_planes(arr: np.ndarray) -> np.ndarray:
    """NumPy tier for :func:`to_bit_planes`.

    Each word is split once into contiguous byte columns, so every
    plane extraction is a uint8 shift-and-mask over half (or less) of
    the word data with a contiguous output.  (An ``unpackbits`` +
    plane-transpose formulation was measured slower — the strided
    transpose of the ``(..., nbits)`` bit stream outweighs the saved
    shift loop.)
    """
    nbits = bit_width(arr.dtype)
    nbytes = nbits // 8
    little = np.ascontiguousarray(
        arr, dtype=arr.dtype.newbyteorder("<")
    ).reshape(-1)
    byte_view = little.view(np.uint8).reshape(-1, nbytes)
    columns = [np.ascontiguousarray(byte_view[:, b]) for b in range(nbytes)]
    planes = np.empty((nbits, little.size), dtype=np.uint8)
    for j in range(nbits):
        pos = nbits - 1 - j
        np.right_shift(columns[pos >> 3], pos & 7, out=planes[j])
        planes[j] &= np.uint8(1)
    return planes.reshape((nbits,) + arr.shape)


def _reference_to_bit_planes(arr: np.ndarray) -> np.ndarray:
    """Pre-vectorization oracle for :func:`to_bit_planes` (per-bit loop)."""
    require_unsigned(arr)
    nbits = bit_width(arr.dtype)
    planes = np.empty((nbits,) + arr.shape, dtype=np.uint8)
    for j in range(nbits):
        planes[j] = bit_plane(arr, nbits - 1 - j)
    return planes


def from_bit_planes(planes: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`to_bit_planes` for the given unsigned dtype.

    ``planes`` must hold 0/1 values (the contract of
    :func:`to_bit_planes`); plane 0 is the MSB.  Validation happens
    here; the transform itself runs on the selected kernel tier.
    """
    dtype = np.dtype(dtype)
    nbits = bit_width(dtype)
    planes = np.asarray(planes)
    if planes.shape[0] != nbits:
        raise DataFormatError(
            f"expected {nbits} planes for {dtype}, got {planes.shape[0]}"
        )
    return _dispatch.call("from_bit_planes", planes, dtype)


def _numpy_from_bit_planes(planes: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """NumPy tier for :func:`from_bit_planes`.

    Per-plane multiply-accumulate into two pre-allocated word buffers;
    this path is memory-bandwidth-bound, so the win over a naive
    shift-or loop comes from eliminating the per-plane temporaries (a
    ``packbits`` + transpose formulation was measured far slower).
    """
    dtype = np.dtype(dtype)
    nbits = bit_width(dtype)
    flat = np.ascontiguousarray(planes, dtype=np.uint8).reshape(nbits, -1)
    out = np.zeros(flat.shape[1], dtype=dtype)
    weighted = np.empty(flat.shape[1], dtype=dtype)
    for j in range(nbits):
        weight = dtype.type(1) << dtype.type(nbits - 1 - j)
        np.multiply(flat[j], weight, out=weighted, casting="unsafe")
        out |= weighted
    return out.reshape(planes.shape[1:])


def _reference_from_bit_planes(planes: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Pre-vectorization oracle for :func:`from_bit_planes` (per-bit loop)."""
    dtype = np.dtype(dtype)
    nbits = bit_width(dtype)
    if planes.shape[0] != nbits:
        raise DataFormatError(
            f"expected {nbits} planes for {dtype}, got {planes.shape[0]}"
        )
    out = np.zeros(planes.shape[1:], dtype=dtype)
    for j in range(nbits):
        out |= (planes[j].astype(dtype)) << np.asarray(nbits - 1 - j, dtype=dtype)
    return out


_dispatch.register(
    "to_bit_planes",
    numpy_impl=_numpy_to_bit_planes,
    reference_impl=_reference_to_bit_planes,
)
_dispatch.register(
    "from_bit_planes",
    numpy_impl=_numpy_from_bit_planes,
    reference_impl=_reference_from_bit_planes,
)


def pack_words(bits: np.ndarray, nbits: int) -> np.ndarray:
    """Pack an MSB-first bit stream into unsigned words of *nbits* bits.

    Stream bit ``s * nbits + j`` becomes bit ``j`` (0 = MSB) of word
    ``s``: ``np.packbits`` fills bytes MSB-first, and a big-endian view
    of those bytes keeps the stream order within each word.  *bits* is a
    bool stream whose length is a multiple of *nbits*; the words come
    back in the native unsigned dtype of that width.
    """
    if nbits not in (8, 16, 32, 64):
        raise ConfigurationError(f"nbits must be 8, 16, 32 or 64, got {nbits}")
    if bits.size % nbits:
        raise DataFormatError(
            f"a stream of {bits.size} bits is not a whole number of {nbits}-bit words"
        )
    nbytes = nbits // 8
    return np.packbits(bits).view(f">u{nbytes}").astype(f"u{nbytes}")


def flip_bits(arr: np.ndarray, flip_mask: np.ndarray) -> np.ndarray:
    """Return a copy of *arr* with the bits selected by *flip_mask* inverted."""
    require_unsigned(arr)
    require_unsigned(flip_mask, "flip_mask")
    if flip_mask.shape != arr.shape:
        raise DataFormatError(
            f"flip_mask shape {flip_mask.shape} != array shape {arr.shape}"
        )
    return np.bitwise_xor(arr, flip_mask.astype(arr.dtype))


def highest_set_bit_value(arr: np.ndarray) -> np.ndarray:
    """Binary weight (value) of the highest set bit per element; 0 for 0.

    >>> highest_set_bit_value(np.array([0, 1, 5, 255], dtype=np.uint16))
    array([  0,   1,   4, 128], dtype=uint64)
    """
    require_unsigned(arr)
    v = arr.astype(np.uint64)
    # Smearing fills every bit below the highest set bit; halving the
    # resulting ones-block and adding one isolates that bit's weight.
    smeared = _smear_right(v)
    return np.where(
        v > 0, (smeared >> np.uint64(1)) + np.uint64(1), np.uint64(0)
    )


def _reference_highest_set_bit_value(arr: np.ndarray) -> np.ndarray:
    """Pre-vectorization oracle for :func:`highest_set_bit_value`."""
    require_unsigned(arr)
    v = arr.astype(np.uint64)
    out = np.zeros_like(v)
    live = v > 0
    work = v.copy()
    weight = np.ones_like(v)
    while np.any(work > 1):
        gt = work > 1
        work[gt] >>= 1
        weight[gt] <<= 1
    out[live] = weight[live]
    return out
