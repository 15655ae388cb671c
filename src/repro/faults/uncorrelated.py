"""The uncorrelated fault model of §2.2.2.

Bit-flips occur independently at every bit of the input dataset with a
static probability Γ₀ — at source, in transit, or while the data resides
in memory.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import UncorrelatedFaultConfig
from repro.core import bitops
from repro.exceptions import ConfigurationError


#: Uniform draws per block of one frame's bit planes: 32 KiB of float64.
#: A word array of at least this many elements draws one plane per
#: block, exactly as the reference does.
_DRAW_BUDGET = 4096

#: Uniform draws per block of whole frames (512 KiB of float64).  Only
#: frames whose bits fit ``_DRAW_BUDGET`` share a block; a larger frame
#: draws alone, in blocks of ``_DRAW_BUDGET``.
_CHUNK_DRAW_BUDGET = 16 * _DRAW_BUDGET

_WEIGHTS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _check_mask_args(nbits: int, gamma0: float) -> None:
    if not 0.0 <= gamma0 <= 1.0:
        raise ConfigurationError(f"gamma0 must be within [0, 1], got {gamma0}")
    if nbits < 1 or nbits > 64:
        raise ConfigurationError(f"nbits must be within [1, 64], got {nbits}")


def _draw_masks(
    shape: tuple[int, ...],
    nbits: int,
    gammas: list[float],
    rngs,
    dtype: np.dtype,
) -> np.ndarray:
    """Flip masks of ``len(gammas)`` frames of *shape*, as *dtype* words.

    Bit plane ``b`` of frame ``j`` is ``rng_j.random(shape) < gammas[j]``,
    drawn bit-major, so frame ``j`` consumes its Generator exactly as one
    ``rng_j.random((nbits,) + shape)`` would, however the draws are
    blocked; a frame with Γ = 0 draws nothing.  *rngs* yields one
    Generator per frame and is advanced only after the frame's draws.

    Small frames are drawn into one buffer of up to
    ``_CHUNK_DRAW_BUDGET`` draws, compared against their Γ column and
    packed together; a frame of more than ``_DRAW_BUDGET`` draws is
    drawn alone, ``_DRAW_BUDGET // size`` planes at a time.
    """
    n = len(gammas)
    masks = np.zeros((n,) + shape, dtype=dtype)
    size = max(math.prod(shape), 1)
    if nbits * size <= _DRAW_BUDGET:
        planes, frames = nbits, max(1, _CHUNK_DRAW_BUDGET // (nbits * size))
    else:
        planes, frames = max(1, _DRAW_BUDGET // size), 1
    buffer = np.empty((min(frames, n), planes) + shape)
    column = np.array(gammas, dtype=np.float64).reshape((n, 1) + (1,) * len(shape))
    rngs = iter(rngs)
    for lo in range(0, n, frames):
        hi = min(lo + frames, n)
        if frames == 1 and gammas[lo] == 0.0:
            next(rngs)
            continue
        # Whole frames share a block (one pass of this loop), or one
        # large frame keeps its Generator across its blocks of planes.
        for plane in range(0, nbits, planes):
            block = buffer[: hi - lo, : min(planes, nbits - plane)]
            for j in range(lo, hi):
                if plane == 0:
                    rng = next(rngs)
                if gammas[j] == 0.0:
                    block[j - lo] = 1.0  # never below Γ = 0
                else:
                    rng.random(out=block[j - lo])
            masks[lo:hi] |= pack_planes(block < column[lo:hi], dtype, plane)
    return masks


def pack_planes(hits: np.ndarray, dtype: np.dtype, first_bit: int = 0) -> np.ndarray:
    """Words of *dtype* from bool bit planes: ``hits`` is ``(f, p, ...)``
    and plane ``j`` of frame ``i`` becomes bit ``first_bit + j`` of word
    ``out[i, ...]``.

    The one plane-to-word packer of the uncorrelated model: the blocked
    draws of :func:`_draw_masks` and any caller holding a frame's
    ``(nbits,) + shape`` uniforms ``u`` (whose mask at Γ₀ is
    ``pack_planes((u < Γ₀)[None], dtype)[0]``) share it.
    """
    weights = _WEIGHTS[first_bit : first_bit + hits.shape[1]].astype(dtype)
    return np.einsum("fp...,p->f...", hits.view(np.uint8), weights, dtype=dtype)


def uncorrelated_flip_mask(
    shape: tuple[int, ...],
    nbits: int,
    gamma0: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random per-word flip masks: each bit set with probability Γ₀.

    Returns a uint64 array of *shape*; callers cast to their word dtype.

    Bit plane ``b`` is ``rng.random(shape) < Γ₀``, drawn bit-major as in
    :func:`_reference_uncorrelated_flip_mask`; a block of planes comes
    from one ``rng.random`` call, which consumes the Generator in the
    same order.  The result and the Generator's final state are
    therefore byte-identical to the reference, while a small frame pays
    for one draw instead of *nbits*.
    """
    _check_mask_args(nbits, gamma0)
    shape = tuple(shape) if np.iterable(shape) else (int(shape),)
    return _draw_masks(shape, nbits, [gamma0], [rng], np.dtype(np.uint64))[0]


def _reference_uncorrelated_flip_mask(
    shape: tuple[int, ...],
    nbits: int,
    gamma0: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One ``rng.random(shape)`` draw per bit plane: the oracle for
    :func:`uncorrelated_flip_mask`."""
    _check_mask_args(nbits, gamma0)
    if gamma0 == 0.0:
        return np.zeros(shape, dtype=np.uint64)
    mask = np.zeros(shape, dtype=np.uint64)
    for bit in range(nbits):
        flips = rng.random(shape) < gamma0
        mask |= flips.astype(np.uint64) << np.uint64(bit)
    return mask


class UncorrelatedFaultModel:
    """Injects i.i.d. Γ₀ bit-flips into unsigned-int or float32 arrays."""

    def __init__(
        self,
        config: UncorrelatedFaultConfig | float = UncorrelatedFaultConfig(),
    ) -> None:
        if isinstance(config, (int, float)):
            config = UncorrelatedFaultConfig(gamma0=float(config))
        self.config = config

    def cache_key_parts(self) -> tuple:
        """Canonical identity of this model for artifact cache keys."""
        return (type(self).__name__, self.config)

    def corrupt(
        self, data: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(corrupted_copy, flip_mask)`` for *data*.

        float32 input is corrupted through its uint32 bit patterns, as
        faults strike the stored representation, not the value.
        """
        if not isinstance(data, (np.ndarray, np.generic)):
            bitops.require_unsigned(data, "data")
        corrupted, masks = self.corrupt_chunk(np.asarray(data)[np.newaxis], (rng,))
        return corrupted[0, ...], masks[0, ...]

    def corrupt_chunk(
        self,
        frames: np.ndarray,
        rngs,
        gammas: "list[float] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Corrupt each frame of a ``(k,) + shape`` chunk with its own Generator.

        Frame ``j`` comes out byte-identical to ``corrupt(frames[j],
        rng_j)`` under Γ₀ = ``gammas[j]`` (default: this model's Γ₀ for
        every frame), but the chunk's small frames are drawn into one
        buffer and packed together.  *rngs* yields one Generator per
        frame and is advanced only after the frame's draws, so the
        reseeded Generator of :class:`repro.stream.FrameSeeder` serves.
        """
        k = frames.shape[0]
        if gammas is None:
            gammas = [self.config.gamma0] * k
        elif len(gammas) != k or not all(0.0 <= g <= 1.0 for g in gammas):
            raise ConfigurationError(
                f"need {k} gamma values within [0, 1], got {list(gammas)[:8]}"
            )
        shape = frames.shape[1:]
        if frames.dtype == np.float32:
            bits = bitops.float32_to_bits(np.ascontiguousarray(frames))
            masks = _draw_masks(shape, 32, gammas, rngs, bits.dtype)
            return bitops.bits_to_float32(np.bitwise_xor(bits, masks)), masks
        bitops.require_unsigned(frames, "data")
        masks = _draw_masks(shape, bitops.bit_width(frames.dtype), gammas, rngs, frames.dtype)
        return np.bitwise_xor(frames, masks), masks
