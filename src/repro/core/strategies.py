"""Application-aware selective protection, the one non-paper strategy.

The paper fixes Υ and Λ per run ("experimentally optimized values", §6)
and protects every pixel alike.  ``NGSTConfig(strategy="selective")``
instead routes :class:`repro.core.algo_ngst.AlgoNGST` through
:func:`run_selective` — **application-aware selective protection**
(after Wang et al., arXiv:2407.11853).  A per-region sensitivity map
built from ``margin`` / ``header_rows`` / ``science_fast`` partitions
the image coordinates: high-sensitivity regions (headers, science
interior) run the full Algorithm 1 voter; low-sensitivity regions
(calibration margins, or the science field when only headers matter)
take a cheap unanimous-vote-only path that skips the GRT combiner and
the per-coordinate threshold scan.  When the map marks everything
sensitive (the default field values) the strategy delegates wholesale
to the ``fixed`` path and is byte-identical by construction.

It returns the same :class:`NGSTResult` as the fixed path, so it flows
through caching, DAG reports, and every runtime backend unchanged.  The
online Λ autotuner lives in :mod:`repro.stream.autotune_stage` because
it is stateful across stacks.
"""

from __future__ import annotations

import numpy as np

from repro.config import NGSTConfig, STRATEGY_CHOICES
from repro.core import bitops
from repro.core.algo_ngst import NGSTResult, run_fixed
from repro.core.voter import VoterMatrix
from repro.core.windows import BitWindows
from repro.exceptions import ConfigurationError

__all__ = [
    "STRATEGY_CHOICES",
    "region_mask",
    "run_selective",
    "strategy_arm_config",
]


def strategy_arm_config(
    strategy: str, *, upsilon: int = 4, sensitivity: float = 50.0
) -> NGSTConfig:
    """A representative :class:`NGSTConfig` for a named-strategy arm.

    Experiments add strategy arms by name (``repro fig2 --strategy
    selective``); this picks the canonical knob settings those arms run
    at, so the arm labels in figures and bench reports always mean the
    same configuration.  ``selective`` protects a 2-row header and
    treats a 2-pixel border as low-sensitivity margin — the smallest map
    that actually exercises both region kinds.
    """
    if strategy == "selective":
        return NGSTConfig(
            upsilon=upsilon,
            sensitivity=sensitivity,
            strategy="selective",
            margin=2,
            header_rows=2,
        )
    if strategy == "fixed":
        return NGSTConfig(upsilon=upsilon, sensitivity=sensitivity)
    raise ConfigurationError(
        f"strategy must be one of {STRATEGY_CHOICES}, got {strategy!r}"
    )


def region_mask(coord_shape: tuple[int, ...], cfg: NGSTConfig) -> np.ndarray | None:
    """Per-region sensitivity map over the image coordinates.

    ``True`` marks high-sensitivity coordinates (full preprocessing),
    ``False`` low-sensitivity ones (cheap unanimous-vote path):

    * ``science_fast`` starts the whole field low-sensitivity;
    * ``margin`` marks a border of that width along every spatial axis
      low-sensitivity (overscan/calibration margins);
    * ``header_rows`` forces the leading rows of the first spatial axis
      back to high sensitivity (telemetry/header region), overriding
      both of the above.

    Returns ``None`` for coordinate-less (1-D temporal) stacks — there
    are no regions to distinguish, so every pixel is sensitive.
    """
    if not coord_shape:
        return None
    mask = np.ones(coord_shape, dtype=bool)
    if cfg.science_fast:
        mask[...] = False
    if cfg.margin > 0:
        for axis, length in enumerate(coord_shape):
            sl = [slice(None)] * len(coord_shape)
            sl[axis] = slice(0, min(cfg.margin, length))
            mask[tuple(sl)] = False
            sl[axis] = slice(max(length - cfg.margin, 0), None)
            mask[tuple(sl)] = False
    if cfg.header_rows > 0:
        sl = [slice(None)] * len(coord_shape)
        sl[0] = slice(0, min(cfg.header_rows, coord_shape[0]))
        mask[tuple(sl)] = True
    return mask


def _unanimous_corrections(pixels: np.ndarray, cfg: NGSTConfig) -> tuple[np.ndarray, BitWindows]:
    """The cheap low-sensitivity path: global thresholds, unanimity only.

    Skips both the per-coordinate threshold scan and the GRT combiner —
    a correction is applied only where *all* Υ pruned voters agree,
    within window B/C bounds (``corr = unanimous & LSB-MASK``; no
    window-A relaxation without the Υ−1 vote).
    """
    matrix = VoterMatrix(pixels, cfg.upsilon)
    thresholds = matrix.thresholds(cfg.sensitivity, per_coordinate=False)
    windows = BitWindows.from_thresholds(thresholds, bitops.bit_width(pixels.dtype))
    unanimous = VoterMatrix.unanimous(matrix.pruned(thresholds))
    return unanimous & windows.lsb_mask.astype(pixels.dtype), windows


def run_selective(pixels: np.ndarray, cfg: NGSTConfig) -> NGSTResult:
    """Algorithm 1 on the sensitive regions, unanimity on the rest."""
    mask = region_mask(pixels.shape[1:], cfg)
    if mask is None or bool(mask.all()):
        # Everything is high-sensitivity: the full path on the intact
        # array, byte-identical to the fixed strategy by construction.
        return run_fixed(pixels, cfg)
    n = pixels.shape[0]
    flat = pixels.reshape(n, -1)
    flat_mask = mask.reshape(-1)
    sens_idx = np.nonzero(flat_mask)[0]
    fast_idx = np.nonzero(~flat_mask)[0]
    corr = np.zeros(flat.shape, dtype=pixels.dtype)
    windows: BitWindows | None = None
    if sens_idx.size:
        # Per-coordinate thresholds are column-independent, so the
        # sensitive columns correct exactly as they would in a
        # full-image run when per_coordinate_thresholds is set.
        full = run_fixed(np.ascontiguousarray(flat[:, sens_idx]), cfg)
        corr[:, sens_idx] = full.correction_vectors
        windows = full.windows
    if fast_idx.size:
        fast_corr, fast_windows = _unanimous_corrections(
            np.ascontiguousarray(flat[:, fast_idx]), cfg
        )
        corr[:, fast_idx] = fast_corr
        if windows is None:
            windows = fast_windows
    corr = corr.reshape(pixels.shape)
    corrected = np.bitwise_xor(pixels, corr)
    assert windows is not None  # sens_idx or fast_idx is non-empty
    return NGSTResult(
        corrected=corrected,
        correction_vectors=corr,
        windows=windows,
        n_pixels_corrected=int(np.count_nonzero(corr)),
        n_bits_corrected=int(bitops.popcount(corr).sum()),
    )
