"""``Algo_NGST`` — the dynamic preprocessing algorithm of the paper
(Algorithm 1), operating on temporally redundant 16-bit detector stacks.

The algorithm is *entirely dynamic* in its criteria for identifying
faulty pixels: the pruning thresholds, and hence the bit-window
boundaries, are derived from the statistics of the dataset being
processed (per image coordinate when the stack carries spatial axes),
so quiet regions get tight bounds and turbulent regions loose ones.

Pipeline per Algorithm 1:

1. Build the Υ-way XOR voter matrix (``repro.core.voter``).
2. Prune it with the Φ(Λ)-ranked ``V_val`` thresholds.
3. Derive the LSB/MSB bit-window masks from the thresholds.
4. Combine unanimity (window B) and the GRT Υ−1 vote (window A) into a
   correction vector; XOR it into the damaged pixels.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.config import NGSTConfig
from repro.core import bitops
from repro.core.voter import VoterMatrix, _reference_thresholds
from repro.core.windows import BitWindows
from repro.exceptions import ConfigurationError, DataFormatError


@dataclass(frozen=True)
class NGSTResult:
    """Outcome of one ``Algo_NGST`` run.

    Attributes:
        corrected: the repaired pixel stack, same shape/dtype as the input.
        correction_vectors: per-pixel XOR masks that were applied; zero
            where the pixel was judged undamaged.
        windows: the dynamic bit-window masks used.
        n_pixels_corrected: number of pixels with a nonzero correction.
        n_bits_corrected: total number of bits flipped back.
    """

    corrected: np.ndarray
    correction_vectors: np.ndarray
    windows: BitWindows
    n_pixels_corrected: int
    n_bits_corrected: int


def run_fixed(pixels: np.ndarray, cfg: NGSTConfig) -> NGSTResult:
    """Algorithm 1 exactly as the paper states it (the ``fixed`` strategy)."""
    return _sweep_fixed(pixels, cfg, (cfg.sensitivity,))[0]


def _sweep_fixed(
    pixels: np.ndarray, cfg: NGSTConfig, sensitivities: Sequence[float]
) -> list[NGSTResult]:
    """Algorithm 1 at every Λ of *sensitivities* on one stack, in one vote.

    The voter matrix and the ordered ways do not depend on Λ and are
    built once.  The L Λs' survivor masks form one ``(Υ, L, P)`` array
    over the P pixels, and the vote visits only the *active* pixels —
    those with a surviving voter at some Λ — gathered once in the pixel
    dtype; every other pixel gets a zero correction.  A higher Λ lowers
    the thresholds, so the union is the highest Λ's active set, and a
    one-Λ sweep (:func:`run_fixed`) visits exactly its own: this step's
    cost grows with Λ (§3.2, Fig. 3).  The combiners then run once over
    ``(Υ, L·A)``.
    """
    matrix = VoterMatrix(pixels, cfg.upsilon)
    nbits = bitops.bit_width(pixels.dtype)
    thresholds = matrix.threshold_sweep(
        sensitivities, per_coordinate=cfg.per_coordinate_thresholds
    )
    n_sweep, upsilon = thresholds.shape[:2]
    windows = BitWindows.sweep_from_thresholds(thresholds, nbits)
    keep = matrix.survivor_sweep(thresholds).reshape(upsilon, n_sweep, -1)
    active = np.flatnonzero(keep.reshape(upsilon * n_sweep, -1).any(axis=0))
    corr = np.zeros((n_sweep, pixels.size), dtype=pixels.dtype)
    n_bits = np.zeros(n_sweep, dtype=np.int64)
    if active.size:
        # np.take and a multiply by the mask are several times faster
        # than fancy indexing and np.where on these small-integer dtypes.
        keep = keep.take(active, axis=2)
        xors = matrix.xors.reshape(upsilon, 1, -1).take(active, axis=2)
        voters = np.multiply(xors, keep, dtype=pixels.dtype).reshape(upsilon, -1)
        unanimous = VoterMatrix.unanimous(voters).reshape(n_sweep, -1)
        grt = VoterMatrix.grt(voters).reshape(n_sweep, -1)
        # The masks hold only bits below 2**nbits, so the cast is exact;
        # per-coordinate masks are read at each active pixel's coordinate.
        msb = np.array([w.msb_mask for w in windows], dtype=pixels.dtype)
        lsb = np.array([w.lsb_mask for w in windows], dtype=pixels.dtype)
        msb, lsb = msb.reshape(n_sweep, -1), lsb.reshape(n_sweep, -1)
        if lsb.shape[1] > 1:
            coords = active % lsb.shape[1]
            msb, lsb = msb.take(coords, axis=1), lsb.take(coords, axis=1)
        votes = (unanimous | (grt & msb)) & lsb
        corr[:, active] = votes
        n_bits = bitops.popcount(votes).sum(axis=1)
    corr = corr.reshape((n_sweep,) + pixels.shape)
    corrected = np.bitwise_xor(pixels, corr)
    return [
        NGSTResult(
            corrected=corrected[i],
            correction_vectors=corr[i],
            windows=windows[i],
            n_pixels_corrected=int(np.count_nonzero(corr[i])),
            n_bits_corrected=int(n_bits[i]),
        )
        for i in range(n_sweep)
    ]


def _reference_run_fixed(pixels: np.ndarray, cfg: NGSTConfig) -> NGSTResult:
    """Pre-sweep oracle for :func:`run_fixed`: one Λ, voting in uint64
    over a fancy-index gather of the active pixels only."""
    matrix = VoterMatrix(pixels, cfg.upsilon)
    thresholds = _reference_thresholds(
        matrix, cfg.sensitivity, per_coordinate=cfg.per_coordinate_thresholds
    )
    nbits = bitops.bit_width(pixels.dtype)
    windows = BitWindows.from_thresholds(thresholds, nbits)

    n = matrix.n_variants
    n_coords = int(np.prod(pixels.shape[1:], dtype=np.int64)) if pixels.ndim > 1 else 1
    xors = matrix.xors.reshape(cfg.upsilon, n, n_coords)
    thr = np.asarray(thresholds, dtype=np.uint64).reshape(cfg.upsilon, 1, -1)
    keep = xors.astype(np.uint64) > thr

    corr = np.zeros(n * n_coords, dtype=np.uint64)
    active = keep.any(axis=0).reshape(-1)
    active_idx = np.nonzero(active)[0]
    if active_idx.size:
        flat_xors = xors.reshape(cfg.upsilon, -1)
        flat_keep = keep.reshape(cfg.upsilon, -1)
        voters = np.where(
            flat_keep[:, active_idx], flat_xors[:, active_idx], 0
        ).astype(np.uint64)
        unanimous = VoterMatrix.unanimous(voters)
        grt = VoterMatrix.grt(voters)
        lsb = np.asarray(windows.lsb_mask, dtype=np.uint64).reshape(-1)
        msb = np.asarray(windows.msb_mask, dtype=np.uint64).reshape(-1)
        coord_idx = active_idx % n_coords if lsb.size > 1 else np.zeros_like(active_idx)
        corr[active_idx] = (
            unanimous | (grt & msb[coord_idx])
        ) & lsb[coord_idx]
    corr = corr.reshape(pixels.shape).astype(pixels.dtype)
    corrected = np.bitwise_xor(pixels, corr)
    return NGSTResult(
        corrected=corrected,
        correction_vectors=corr,
        windows=windows,
        n_pixels_corrected=int(np.count_nonzero(corr)),
        n_bits_corrected=int(bitops.popcount(corr).sum()),
    )


class AlgoNGST:
    """Callable implementation of Algorithm 1.

    Example:
        >>> import numpy as np
        >>> from repro.config import NGSTConfig
        >>> stack = np.full(16, 27000, dtype=np.uint16)
        >>> damaged = stack.copy(); damaged[3] ^= 1 << 14
        >>> result = AlgoNGST(NGSTConfig(upsilon=4, sensitivity=80))(damaged)
        >>> int(result.corrected[3])
        27000
    """

    def __init__(self, config: NGSTConfig | None = None) -> None:
        self.config = _require_positive_sensitivity(config or NGSTConfig())

    def __call__(self, pixels: np.ndarray) -> NGSTResult:
        """Preprocess a temporal stack of shape ``(N, ...)`` uint16 pixels.

        The statistical pre-analysis (voter matrix and thresholds) costs
        the same at every Λ, but the correction stage iterates only over
        *active* pixels — those with at least one surviving voter — so,
        exactly as §3.2 describes, the execution overhead grows with the
        sensitivity: a higher Λ lowers the thresholds and admits more
        candidates into the expensive voting stage.
        """
        _require_stack(pixels)
        cfg = self.config
        if cfg.strategy == "selective":
            # Late import: strategies imports run_fixed from this module.
            from repro.core.strategies import run_selective

            return run_selective(pixels, cfg)
        return run_fixed(pixels, cfg)

    def sweep(
        self, pixels: np.ndarray, sensitivities: Sequence[float]
    ) -> list[NGSTResult]:
        """One result per Λ of *sensitivities*, in order, on one stack.

        Each entry is byte-identical to this algorithm's call with the
        sensitivity replaced by that Λ.  The Υ-way voter matrix and its
        ordered ways are built once for the whole sweep, which is what
        makes choosing Λ by trial (``best_sensitivity``, the autotuner)
        cheap.  Only the ``fixed`` strategy sweeps.
        """
        _require_stack(pixels)
        if self.config.strategy != "fixed":
            raise ConfigurationError(
                f"sweep runs only strategy 'fixed', got {self.config.strategy!r}"
            )
        for sensitivity in sensitivities:
            # replace() re-runs NGSTConfig's range check on each Λ.
            _require_positive_sensitivity(
                replace(self.config, sensitivity=sensitivity)
            )
        return _sweep_fixed(pixels, self.config, sensitivities)


def _require_positive_sensitivity(config: NGSTConfig) -> NGSTConfig:
    if config.sensitivity == 0:
        raise ConfigurationError(
            "Algo_NGST requires sensitivity > 0; at null sensitivity use "
            "NGSTPreprocessor, which degrades to header sanity analysis"
        )
    return config


def _require_stack(pixels: np.ndarray) -> None:
    bitops.require_unsigned(pixels, "pixels")
    if pixels.ndim < 1 or pixels.shape[0] < 2:
        raise DataFormatError(
            "pixels must have a leading temporal axis with >= 2 variants"
        )
