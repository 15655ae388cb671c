"""The Υ-way XOR voter matrix of Algorithm 1 (§3.3).

Each pixel in the temporal stack is bit-compared (XOR) with its Υ/2
immediately preceding and Υ/2 immediately following temporal variants —
the pairing with the least average distance from the Υ neighbours that
the paper prescribes.  The resulting per-pixel voters are then pruned by
a dynamic, sensitivity-derived threshold: XOR magnitudes at or below the
``V_val`` of their pairing way are natural variation and are zeroed, so
they vote for no correction at any bit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core import bitops
from repro.core.sensitivity import phi_rank
from repro.exceptions import ConfigurationError, DataFormatError
from repro.native import dispatch as _dispatch


def reflect_index(index: int, length: int) -> int:
    """Mirror *index* into ``[0, length)`` without repeating the edge.

    >>> [reflect_index(i, 5) for i in (-2, -1, 0, 4, 5, 6)]
    [2, 1, 0, 4, 3, 2]
    """
    if length < 2:
        raise ConfigurationError(f"length must be >= 2, got {length}")
    period = 2 * (length - 1)
    index %= period
    if index < 0:
        index += period
    return index if index < length else period - index


def neighbour_indices(n: int, offset: int) -> np.ndarray:
    """Indices of the neighbour at signed *offset* for each of n pixels.

    Out-of-range neighbours reflect at the boundaries so every pixel has a
    full complement of Υ voters.
    """
    if n < 2:
        raise ConfigurationError(f"length must be >= 2, got {n}")
    period = 2 * (n - 1)
    idx = (np.arange(n, dtype=np.intp) + offset) % period
    return np.where(idx < n, idx, period - idx).astype(np.intp)


def _reference_neighbour_indices(n: int, offset: int) -> np.ndarray:
    """Pre-vectorization oracle for :func:`neighbour_indices`."""
    return np.array([reflect_index(i + offset, n) for i in range(n)], dtype=np.intp)


def _leave_one_out_union(voters: np.ndarray) -> np.ndarray:
    """``OR_k ( AND_{j != k} voters[j] )`` in O(Υ) AND/OR operations.

    A bit is in some leave-one-out AND exactly when at most one voter
    has it clear, so a two-level saturating zero counter — ``zero1``
    marks bits cleared by at least one voter, ``zero2`` bits cleared by
    at least two — computes the union in one pass with two plane-sized
    accumulators.  (A prefix/suffix AND scheme has the same O(Υ) op
    count but allocates a Υ-plane prefix array; on large stacks that
    allocation alone cost more than the saved ANDs.)
    """
    zero1 = ~voters[0]
    zero2 = np.zeros_like(zero1)
    for k in range(1, voters.shape[0]):
        cleared = ~voters[k]
        zero2 |= zero1 & cleared
        zero1 |= cleared
    return ~zero2


def _reference_unanimous(voters: np.ndarray) -> np.ndarray:
    """Pre-vectorization oracle for :meth:`VoterMatrix.unanimous`."""
    out = voters[0].copy()
    for way in range(1, voters.shape[0]):
        out &= voters[way]
    return out


def _reference_grt(voters: np.ndarray) -> np.ndarray:
    """Pre-vectorization O(Υ²) oracle for :meth:`VoterMatrix.grt`."""
    upsilon = voters.shape[0]
    if upsilon == 2:
        return _reference_unanimous(voters)
    out = np.zeros_like(voters[0])
    for k in range(upsilon):
        acc: np.ndarray | None = None
        for j in range(upsilon):
            if j == k:
                continue
            acc = voters[j].copy() if acc is None else acc & voters[j]
        if acc is not None:
            out |= acc
    return out


def _reference_thresholds(
    matrix: VoterMatrix, sensitivity: float, per_coordinate: bool = True
) -> np.ndarray:
    """Pre-sweep oracle for :meth:`VoterMatrix.thresholds`: one
    partition per Λ."""
    kth = matrix.n_variants - phi_rank(sensitivity, matrix.n_variants)
    if per_coordinate and matrix.xors.ndim > 2:
        selected = np.partition(matrix.xors, kth, axis=1)[:, kth]
    else:
        flat = matrix.xors.reshape(matrix.upsilon, -1)
        total = flat.shape[1]
        kth_flat = min(total - 1, max(0, round(kth * total / matrix.n_variants)))
        selected = np.partition(flat, kth_flat, axis=1)[:, kth_flat]
    return np.asarray(bitops.ceil_pow2(selected), dtype=np.uint64)


class VoterMatrix:
    """Voter matrix over a temporal stack of unsigned pixels.

    Args:
        pixels: array of shape ``(N, ...)`` with an unsigned dtype; axis 0
            is the temporal axis (the N variants of §2.2.1).  Trailing
            axes, if any, are independent image coordinates.
        upsilon: Υ, positive even number of neighbours per pixel.

    Attributes:
        xors: array of shape ``(Υ, N, ...)``; ``xors[w, i]`` is the XOR of
            pixel ``i`` with its ``w``-th neighbour.  Ways are ordered
            ``+1, -1, +2, -2, …`` (forward/backward alternating).
        offsets: the signed temporal offset of each way.
    """

    def __init__(self, pixels: np.ndarray, upsilon: int) -> None:
        bitops.require_unsigned(pixels, "pixels")
        if upsilon <= 0 or upsilon % 2 != 0:
            raise ConfigurationError(
                f"upsilon must be a positive even integer, got {upsilon}"
            )
        n = pixels.shape[0]
        if n <= upsilon // 2:
            raise DataFormatError(
                f"need more than upsilon/2={upsilon // 2} temporal variants, got {n}"
            )
        self.pixels = pixels
        self.upsilon = upsilon
        self.n_variants = n
        self.offsets = []
        for d in range(1, upsilon // 2 + 1):
            self.offsets.extend((d, -d))
        self.xors = np.empty((upsilon,) + pixels.shape, dtype=pixels.dtype)
        for way, offset in enumerate(self.offsets):
            idx = neighbour_indices(n, offset)
            self.xors[way] = np.bitwise_xor(pixels, pixels[idx])

    def thresholds(self, sensitivity: float, per_coordinate: bool = True) -> np.ndarray:
        """Dynamic pruning thresholds ``V_val`` per way (and coordinate).

        The Φ(Λ)-th greatest XOR magnitude of each way is located and
        rounded up to the nearest power of two.  With ``per_coordinate``
        the statistic is taken independently for every image coordinate,
        which is what makes the algorithm's bounds *regional*: quiet
        regions get tight thresholds, turbulent ones get loose thresholds.

        Returns:
            uint64 array of shape ``(Υ,)`` (global) or ``(Υ,) + coord
            shape`` (per coordinate), each element a power of two.
        """
        return self.threshold_sweep((sensitivity,), per_coordinate)[0]

    def threshold_sweep(
        self, sensitivities: Sequence[float], per_coordinate: bool = True
    ) -> list[np.ndarray]:
        """:meth:`thresholds` at every Λ of *sensitivities*, in order.

        The ways are ordered along the temporal axis once for the whole
        sweep, so each Λ's Φ(Λ)-th greatest element is a read.  One
        distinct rank needs only a partition; several take a full sort,
        which on 64-long lanes costs what a single partition does.
        """
        # Φ-th greatest == (N - Φ)-th smallest (0-indexed) along the
        # temporal axis of each way.
        kths = [self.n_variants - phi_rank(s, self.n_variants) for s in sensitivities]
        if per_coordinate and self.xors.ndim > 2:
            lanes = self.xors
        else:
            lanes = self.xors.reshape(self.upsilon, -1)
            # Rank Φ is defined over N statistics; for the global variant
            # scale the rank to the flattened length to keep the same
            # quantile.
            total = lanes.shape[1]
            kths = [
                min(total - 1, max(0, round(kth * total / self.n_variants)))
                for kth in kths
            ]
        if len(set(kths)) == 1:
            ordered = np.partition(lanes, kths[0], axis=1)
        else:
            ordered = np.sort(lanes, axis=1)
        return [
            np.asarray(bitops.ceil_pow2(ordered[:, kth]), dtype=np.uint64)
            for kth in kths
        ]

    def survivors(self, thresholds: np.ndarray) -> np.ndarray:
        """Boolean ``(Υ, N, ...)`` mask of the voters that survive pruning.

        ``thresholds`` must come from :meth:`thresholds`; an entry
        survives when its XOR magnitude is above the threshold of its way
        (and coordinate).
        """
        thresholds = np.asarray(thresholds, dtype=np.uint64)
        if thresholds.ndim < 1 or thresholds.shape[0] != self.upsilon:
            raise DataFormatError(
                f"expected {self.upsilon} way thresholds, got shape {thresholds.shape}"
            )
        coords = thresholds.shape[1:]
        if coords and coords != self.pixels.shape[1:]:
            raise DataFormatError(
                f"per-coordinate thresholds of shape {coords} do not match "
                f"the stack's coordinates {self.pixels.shape[1:]}"
            )
        # Broadcast against the (Υ, N, ...) voters: global (Υ,)
        # thresholds over the temporal axis and every coordinate axis,
        # per-coordinate (Υ, ...) ones over the temporal axis.  The
        # comparison runs in the voters' own dtype: a threshold above the
        # dtype's maximum (e.g. 2**16 for uint16) prunes everything, which
        # clamping to the maximum reproduces without materializing a
        # uint64 copy of the whole voter array.
        expanded = thresholds.reshape(
            (self.upsilon,) + (1,) * (self.xors.ndim - 1 - len(coords)) + coords
        )
        dtype_max = np.uint64(np.iinfo(self.xors.dtype).max)
        return self.xors > np.minimum(expanded, dtype_max).astype(self.xors.dtype)

    def pruned(self, thresholds: np.ndarray) -> np.ndarray:
        """Voters with natural-variation entries zeroed.

        Entries outside :meth:`survivors` are discarded (set to zero ⇒
        they vote for nothing).
        """
        # Multiplying by the boolean mask is several times faster than
        # np.where on these small-integer dtypes.
        return np.multiply(self.xors, self.survivors(thresholds), dtype=self.xors.dtype)

    @staticmethod
    def unanimous(voters: np.ndarray) -> np.ndarray:
        """Bits asserted by *all* Υ voters (the Ξ combiner of Algorithm 1)."""
        return _dispatch.call("unanimous", voters)

    @staticmethod
    def grt(voters: np.ndarray) -> np.ndarray:
        """The GRT combiner: bits asserted by at least Υ−1 of the Υ voters.

        The union over k of the AND of all voters except k, exactly the
        ``Max / Ξ`` construction in Algorithm 1, computed in O(Υ) bit ops
        (see :func:`_leave_one_out_union`).  For Υ = 2 the
        leave-one-out AND degenerates to a single voter — any lone
        disagreement would trigger a window-A correction — so the
        combiner falls back to unanimity, the only meaningful consensus
        two voters can express.
        """
        upsilon = voters.shape[0]
        if upsilon == 2:
            return VoterMatrix.unanimous(voters)
        return _dispatch.call("grt", voters)


_dispatch.register(
    "unanimous",
    numpy_impl=lambda voters: np.bitwise_and.reduce(voters, axis=0),
    reference_impl=_reference_unanimous,
)
# The Υ = 2 degeneration to unanimity happens before dispatch, so every
# tier's grt implementation only ever sees Υ >= 3.
_dispatch.register(
    "grt",
    numpy_impl=_leave_one_out_union,
    reference_impl=_reference_grt,
)
