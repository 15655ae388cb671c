"""The uncorrelated fault model of §2.2.2.

Bit-flips occur independently at every bit of the input dataset with a
static probability Γ₀ — at source, in transit, or while the data resides
in memory.
"""

from __future__ import annotations

import numpy as np

from repro.config import UncorrelatedFaultConfig
from repro.core import bitops
from repro.exceptions import ConfigurationError


#: Uniform draws per block of bit planes: 32 KiB of float64 per draw.
#: A word array of at least this many elements draws one plane per
#: block, exactly as the reference does.
_DRAW_BUDGET = 4096

_SHIFTS = np.arange(64, dtype=np.uint64)


def _check_mask_args(nbits: int, gamma0: float) -> None:
    if not 0.0 <= gamma0 <= 1.0:
        raise ConfigurationError(f"gamma0 must be within [0, 1], got {gamma0}")
    if nbits < 1 or nbits > 64:
        raise ConfigurationError(f"nbits must be within [1, 64], got {nbits}")


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
    from one ``rng.random((k,) + shape)`` call, which consumes the
    Generator in the same order.  The result and the Generator's final
    state are therefore byte-identical to the reference, while a small
    frame pays for one draw instead of *nbits*.
    """
    _check_mask_args(nbits, gamma0)
    if gamma0 == 0.0:
        return np.zeros(shape, dtype=np.uint64)
    mask = np.zeros(shape, dtype=np.uint64)
    per_block = max(1, _DRAW_BUDGET // max(mask.size, 1))
    for lo in range(0, nbits, per_block):
        hi = min(lo + per_block, nbits)
        planes = (rng.random((hi - lo,) + mask.shape) < gamma0).astype(np.uint64)
        planes <<= _SHIFTS[lo:hi].reshape((hi - lo,) + (1,) * mask.ndim)
        mask |= planes[0] if hi - lo == 1 else np.bitwise_or.reduce(planes, axis=0)
    return mask


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
        if data.dtype == np.float32:
            bits = bitops.float32_to_bits(np.ascontiguousarray(data))
            mask = uncorrelated_flip_mask(bits.shape, 32, self.config.gamma0, rng)
            flipped = np.bitwise_xor(bits, mask.astype(np.uint32))
            return bitops.bits_to_float32(flipped), mask.astype(np.uint32)
        bitops.require_unsigned(data, "data")
        nbits = bitops.bit_width(data.dtype)
        mask = uncorrelated_flip_mask(data.shape, nbits, self.config.gamma0, rng)
        mask = mask.astype(data.dtype)
        return np.bitwise_xor(data, mask), mask
