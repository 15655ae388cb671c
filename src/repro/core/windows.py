"""Bit windows A, B and C and their delimiting masks (§3.1).

A pixel's binary representation is partitioned into three contiguous
windows:

* **A** — the most significant bits; so stable across close temporal
  variants that a bitwise inconsistency with the neighbours is very
  likely a flip.  Corrections here need only Υ−1 of the Υ voters.
* **B** — the middle bits; significant enough to matter but not as
  consistent as A.  Corrections require a unanimous vote.
* **C** — the least significant bits, naturally changing with every
  reading; masked off from any change because flips there are
  indistinguishable from natural variation (and cost little anyway).

The delimiters are *dynamic*: they derive from the pruning thresholds
``V_val`` of the voter matrix.  LSB-MASK (the B/C boundary) keeps bits of
weight >= the minimum ``V_val`` over all pairing ways; MSB-MASK (the A/B
boundary) keeps bits of weight >= the maximum ``V_val``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import bitops
from repro.exceptions import DataFormatError


@dataclass(frozen=True)
class BitWindows:
    """The pair of masks delimiting windows A/B/C for one dataset.

    Both masks may be scalars (global thresholds) or arrays matching the
    image-coordinate shape (per-coordinate thresholds).  Invariant:
    ``msb_mask`` is always a subset of ``lsb_mask`` (window A lies inside
    the correctable region).
    """

    msb_mask: np.ndarray
    lsb_mask: np.ndarray
    nbits: int

    @classmethod
    def from_thresholds(cls, thresholds: np.ndarray, nbits: int) -> "BitWindows":
        """Derive the masks from per-way ``V_val`` thresholds.

        Args:
            thresholds: uint64 array of shape ``(Υ,)`` or ``(Υ,) + coords``,
                powers of two from :meth:`VoterMatrix.thresholds`.
            nbits: pixel width in bits (16 for NGST, 32 for OTIS patterns).
        """
        thresholds = np.asarray(thresholds, dtype=np.uint64)
        if thresholds.ndim < 1:
            raise DataFormatError("thresholds must have a leading way axis")
        return cls.sweep_from_thresholds(thresholds[np.newaxis], nbits)[0]

    @classmethod
    def sweep_from_thresholds(
        cls, stacked: np.ndarray, nbits: int
    ) -> list["BitWindows"]:
        """:meth:`from_thresholds` of every row of *stacked*, in order.

        *stacked* is ``(L, Υ)`` or ``(L, Υ) + coords``, as
        :meth:`VoterMatrix.threshold_sweep` returns it; the masks of all
        L rows are derived together and each window holds views of them.
        """
        stacked = np.asarray(stacked, dtype=np.uint64)
        low = stacked.min(axis=1)
        high = stacked.max(axis=1)
        lsb = np.asarray(bitops.mask_at_or_above(low, nbits), dtype=np.uint64)
        msb = np.asarray(bitops.mask_at_or_above(high, nbits), dtype=np.uint64)
        # [i, ...] keeps a global mask a 0-d array rather than a scalar.
        return [
            cls(msb_mask=msb[i, ...], lsb_mask=lsb[i, ...], nbits=nbits)
            for i in range(stacked.shape[0])
        ]

    def window_a(self) -> np.ndarray:
        """Mask of window A bits (most significant, Υ−1 vote rule)."""
        return self.msb_mask

    def window_b(self) -> np.ndarray:
        """Mask of window B bits (unanimity rule)."""
        return self.lsb_mask & ~self.msb_mask

    def window_c(self) -> np.ndarray:
        """Mask of window C bits (never corrected)."""
        full = np.uint64((1 << self.nbits) - 1)
        return full & ~self.lsb_mask

    def combine(self, unanimous: np.ndarray, grt: np.ndarray) -> np.ndarray:
        """Build the final correction vector from the two vote combiners.

        ``Corr = (unanimous | (grt & MSB-MASK)) & LSB-MASK`` — window A
        accepts the relaxed Υ−1 vote, window B requires unanimity, and
        window C is excluded entirely (Algorithm 1's final combination).
        """
        una = unanimous.astype(np.uint64)
        aux = grt.astype(np.uint64)
        corr = (una | (aux & self.msb_mask)) & self.lsb_mask
        return corr
