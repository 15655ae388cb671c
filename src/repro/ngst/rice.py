"""Rice (Golomb-Rice) entropy codec for the NGST downlink (§2, ref. [12]).

The processed baseline image is compressed with the Rice algorithm
before transmission to the base station.  This is a complete, bit-exact
implementation: predictive (first-difference) mapping, zig-zag folding
to unsigned residuals, block-adaptive parameter selection, and an
escape code for incompressible blocks — the same structure as the
CCSDS/FITS Rice coders.

Stream layout after the header: per block of :data:`BLOCK_SIZE`
samples, a 6-bit Rice parameter k, then per sample the unary quotient
and either the k-bit remainder or, for quotients above
:data:`MAX_QUOTIENT`, the raw folded residual in ``max(32, nbits + 1)``
bits.  uint8/uint16 streams are unchanged from earlier releases; uint32
escape fields grew from 32 to 33 bits, because a folded uint32 residual
can reach ``2**33 - 2`` and the old 32-bit field silently truncated it.

:func:`rice_encode` dispatches through :mod:`repro.native.dispatch`: the
NumPy tier codes :data:`_BLOCKS_PER_PASS` blocks per array pass, and
``_reference_rice_encode`` is the per-sample bit-writer it must match
byte for byte.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import CodecError, DataFormatError
from repro.native import dispatch as _dispatch

#: Samples per adaptive block.
BLOCK_SIZE = 32
#: Unary quotients longer than this escape to a raw sample encoding.
MAX_QUOTIENT = 47
#: Bits of the per-block Rice parameter field.
_K_BITS = 6
#: Blocks the NumPy tier codes per pass; bounds its scratch memory.
_BLOCKS_PER_PASS = 64
#: Supported dtypes and their header codes.
_DTYPE_CODES = {np.dtype(np.uint8): 0, np.dtype(np.uint16): 1, np.dtype(np.uint32): 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}
_MAGIC = b"RICE"


def _raw_bits(nbits: int) -> int:
    """Width of an escaped sample: a folded residual needs nbits + 1 bits."""
    return max(32, nbits + 1)


class _BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0
        self._n = 0

    def write(self, value: int, nbits: int) -> None:
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._n += nbits
        while self._n >= 8:
            self._n -= 8
            self._bytes.append((self._acc >> self._n) & 0xFF)
        self._acc &= (1 << self._n) - 1

    def write_unary(self, q: int) -> None:
        """q one-bits terminated by a zero-bit."""
        while q >= 32:
            self.write(0xFFFFFFFF, 32)
            q -= 32
        self.write((1 << (q + 1)) - 2, q + 1)

    def getvalue(self) -> bytes:
        if self._n:
            tail = (self._acc << (8 - self._n)) & 0xFF
            return bytes(self._bytes) + bytes([tail])
        return bytes(self._bytes)


class _BitReader:
    """MSB-first bit consumer."""

    def __init__(self, blob: bytes) -> None:
        self._blob = blob
        self._pos = 0  # bit position

    def read(self, nbits: int) -> int:
        end = self._pos + nbits
        if end > len(self._blob) * 8:
            raise CodecError("bitstream exhausted")
        value = 0
        pos = self._pos
        while nbits:
            byte = self._blob[pos >> 3]
            avail = 8 - (pos & 7)
            take = min(avail, nbits)
            shift = avail - take
            value = (value << take) | ((byte >> shift) & ((1 << take) - 1))
            pos += take
            nbits -= take
        self._pos = pos
        return value

    def read_unary(self, limit: int) -> int:
        q = 0
        while True:
            if self.read(1) == 0:
                return q
            q += 1
            if q > limit:
                raise CodecError(f"unary run exceeds limit {limit}; corrupt stream")


def _zigzag(residuals: np.ndarray) -> np.ndarray:
    return np.where(residuals >= 0, residuals * 2, -residuals * 2 - 1).astype(np.int64)


def _unzigzag(folded: np.ndarray) -> np.ndarray:
    return np.where(folded % 2 == 0, folded // 2, -(folded + 1) // 2)


def _prepare(data: np.ndarray) -> tuple[bytes, np.ndarray, int]:
    """Validate *data*; return its stream header, folded residuals and bit width."""
    data = np.asarray(data)
    if data.dtype not in _DTYPE_CODES:
        raise DataFormatError(f"rice codec supports uint8/16/32, got {data.dtype}")
    if data.size == 0:
        raise DataFormatError("cannot encode an empty array")
    flat = data.reshape(-1).astype(np.int64)
    residuals = np.empty_like(flat)
    residuals[0] = flat[0]
    residuals[1:] = np.diff(flat)
    header = _MAGIC + struct.pack(
        ">BB", _DTYPE_CODES[data.dtype], data.ndim
    ) + struct.pack(f">{data.ndim}I", *data.shape)
    return header, _zigzag(residuals), data.dtype.itemsize * 8


def _best_k(folded: np.ndarray, max_k: int, raw_bits: int) -> int:
    """Rice parameter minimising the coded size of one block."""
    best_k, best_bits = 0, None
    for k in range(max_k + 1):
        quotients = np.minimum(folded >> k, MAX_QUOTIENT + 1)
        bits = int(quotients.sum()) + len(folded) * (k + 1)
        # Escaped samples cost the raw width instead of the remainder.
        bits += int((quotients > MAX_QUOTIENT).sum()) * raw_bits
        if best_bits is None or bits < best_bits:
            best_k, best_bits = k, bits
    return best_k


def _reference_rice_encode(data: np.ndarray) -> bytes:
    """Per-sample bit-writer oracle for the NumPy tier of :func:`rice_encode`."""
    header, folded, nbits = _prepare(data)
    raw_bits = _raw_bits(nbits)
    writer = _BitWriter()
    max_k = nbits + 1
    for start in range(0, len(folded), BLOCK_SIZE):
        block = folded[start : start + BLOCK_SIZE]
        k = _best_k(block, max_k, raw_bits)
        writer.write(k, _K_BITS)
        for u in block.tolist():
            q = u >> k
            if q > MAX_QUOTIENT:
                writer.write_unary(MAX_QUOTIENT + 1)
                writer.write(u, raw_bits)
            else:
                writer.write_unary(q)
                if k:
                    writer.write(u & ((1 << k) - 1), k)
    return header + writer.getvalue()


def _block_ks(blocks: np.ndarray, counts: np.ndarray, max_k: int, raw_bits: int) -> np.ndarray:
    """:func:`_best_k` for every row of zero-padded *blocks* at once.

    A zero pad has quotient 0 and never escapes, so only the per-sample
    ``k + 1`` term needs the true block length *counts*.  ``argmin``
    keeps the first minimum, the loop's tie-break.
    """
    ks = np.arange(max_k + 1)
    quotients = blocks >> ks[:, None, None]
    np.minimum(quotients, MAX_QUOTIENT + 1, out=quotients)
    costs = quotients.sum(axis=2) + counts * (ks[:, None] + 1)
    costs += (quotients > MAX_QUOTIENT).sum(axis=2) * raw_bits
    return costs.argmin(axis=0)


def _pass_bits(blocks: np.ndarray, counts: np.ndarray, max_k: int, raw_bits: int) -> np.ndarray:
    """The stream bits (one uint8 per bit) of the zero-padded *blocks*.

    Each block is a row of ``(value, width)`` fields in stream order:
    the k header, then per sample its unary field (≤ 49 bits) and its
    remainder or escape field (≤ 33 bits).  Pads get width 0.
    """
    ks = _block_ks(blocks, counts, max_k, raw_bits)[:, None]
    quotients = np.minimum(blocks >> ks, MAX_QUOTIENT + 1)
    escape = quotients > MAX_QUOTIENT
    values = np.empty((len(blocks), 1 + 2 * BLOCK_SIZE), dtype=np.uint64)
    widths = np.empty(values.shape, dtype=np.int64)
    values[:, :1] = ks
    widths[:, 0] = _K_BITS
    values[:, 1::2] = (1 << (quotients + 1)) - 2
    widths[:, 1::2] = quotients + 1
    values[:, 2::2] = np.where(escape, blocks, blocks & ((1 << ks) - 1))
    widths[:, 2::2] = np.where(escape, raw_bits, ks)
    if counts[-1] < BLOCK_SIZE:
        widths[-1, 1 + 2 * counts[-1] :] = 0
    values, widths = values.ravel(), widths.ravel()

    # Bit j of the pass belongs to field i; its shift is end_i - 1 - j.
    ends = np.cumsum(widths).astype(np.uint64)
    shifts = np.repeat(ends - np.uint64(1), widths)
    shifts -= np.arange(len(shifts), dtype=np.uint64)
    bits = np.repeat(values, widths)
    bits >>= shifts
    bits &= np.uint64(1)
    return bits.astype(np.uint8)


def _vectorised_rice_encode(data: np.ndarray) -> bytes:
    """NumPy tier of :func:`rice_encode`: :data:`_BLOCKS_PER_PASS` blocks
    per pass, each pass's bits packed behind the previous pass's
    unpacked tail (< 8 bits)."""
    header, folded, nbits = _prepare(data)
    n_blocks = -(-len(folded) // BLOCK_SIZE)
    padded = np.zeros(n_blocks * BLOCK_SIZE, dtype=np.int64)
    padded[: len(folded)] = folded
    blocks = padded.reshape(n_blocks, BLOCK_SIZE)
    counts = np.full(n_blocks, BLOCK_SIZE, dtype=np.int64)
    counts[-1] = len(folded) - (n_blocks - 1) * BLOCK_SIZE

    max_k, raw_bits = nbits + 1, _raw_bits(nbits)
    chunks = [header]
    tail = np.empty(0, dtype=np.uint8)
    for start in range(0, n_blocks, _BLOCKS_PER_PASS):
        stop = start + _BLOCKS_PER_PASS
        bits = np.concatenate(
            (tail, _pass_bits(blocks[start:stop], counts[start:stop], max_k, raw_bits))
        )
        whole = len(bits) - len(bits) % 8
        chunks.append(np.packbits(bits[:whole]).tobytes())
        tail = bits[whole:]
    chunks.append(np.packbits(tail).tobytes())
    return b"".join(chunks)


_dispatch.register(
    "rice_encode",
    numpy_impl=_vectorised_rice_encode,
    reference_impl=_reference_rice_encode,
)


def rice_encode(data: np.ndarray) -> bytes:
    """Compress an unsigned integer array; bit-exact with :func:`rice_decode`.

    The stream header records dtype, dimensionality and shape so the
    decoder is self-contained.
    """
    return _dispatch.call("rice_encode", data)


def rice_decode(blob: bytes) -> np.ndarray:
    """Decompress a :func:`rice_encode` stream back to the original array."""
    if len(blob) < 6 or blob[:4] != _MAGIC:
        raise CodecError("not a rice stream (bad magic)")
    dtype_code, ndim = struct.unpack(">BB", blob[4:6])
    if dtype_code not in _CODE_DTYPES:
        raise CodecError(f"unknown dtype code {dtype_code}")
    if ndim < 1 or ndim > 8:
        raise CodecError(f"implausible dimensionality {ndim}")
    header_end = 6 + 4 * ndim
    if len(blob) < header_end:
        raise CodecError("truncated rice header")
    shape = struct.unpack(f">{ndim}I", blob[6:header_end])
    count = 1
    for dim in shape:
        count *= dim
    if count == 0:
        raise CodecError("zero-sized shape in rice header")
    # Every sample costs at least one bit and every block a k header, so
    # a header claiming more samples than the payload can hold is
    # rejected before anything is allocated for them.
    payload_bits = (len(blob) - header_end) * 8
    if count + _K_BITS * -(-count // BLOCK_SIZE) > payload_bits:
        raise CodecError(
            f"rice header claims {count} samples but the payload holds "
            f"only {payload_bits} bits; corrupt stream"
        )
    dtype = _CODE_DTYPES[dtype_code]
    nbits = dtype.itemsize * 8
    raw_bits = _raw_bits(nbits)

    reader = _BitReader(blob[header_end:])
    folded = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        block_len = min(BLOCK_SIZE, count - filled)
        k = reader.read(_K_BITS)
        if k > nbits + 1:
            raise CodecError(f"rice parameter k={k} exceeds {nbits + 1}; corrupt stream")
        for i in range(block_len):
            q = reader.read_unary(MAX_QUOTIENT + 1)
            if q == MAX_QUOTIENT + 1:
                folded[filled + i] = reader.read(raw_bits)
            else:
                remainder = reader.read(k) if k else 0
                folded[filled + i] = (q << k) | remainder
        filled += block_len
    residuals = _unzigzag(folded)
    flat = np.cumsum(residuals)
    info = np.iinfo(dtype)
    if np.any(flat < info.min) or np.any(flat > info.max):
        raise CodecError("decoded values out of dtype range; corrupt stream")
    return flat.astype(dtype).reshape(shape)


def compression_ratio(data: np.ndarray) -> float:
    """Uncompressed/compressed size ratio for *data* under this codec."""
    encoded = rice_encode(data)
    return (np.asarray(data).nbytes) / len(encoded)
