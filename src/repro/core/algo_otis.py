"""``Algo_OTIS`` — the preprocessing concept fine-tuned for the OTIS
thermal imaging spectrometer (§7).

OTIS has no temporal redundancy (a single frame per field of view), so
the voter neighbourhood is *spatial*: each stored radiance word is
bit-compared with its Υ in-plane neighbours.  Two OTIS-specific rules
(§7.2) temper the scheme against false alarms, which would otherwise be
far more damaging than for NGST:

1. **Trend exemption** — a deviant pixel whose neighbourhood shares the
   deviation is a genuine natural phenomenon (geyser, eruption) and must
   be retained; only isolated non-conformance is treated as a fault.
2. **Absolute bounds** — any value outside the theoretical physical
   limits (optionally tightened by geographic "tropical"/"arctic"
   cut-offs) is outright a fault and repaired unconditionally.

Two storage representations are supported (see DESIGN.md §2):

* ``uint16`` — the detector's fixed-point DN encoding, the primary
  path for the paper's experiments (it reproduces the §8 error levels);
  DN words are converted to physical values via ``config.dn_scale``.
* ``float32`` — IEEE-754 bit patterns, voting over 32-bit windows; the
  literal reading of §7.1's storage format, kept for ablations.

The band kernel dispatches through :mod:`repro.native.dispatch`.  The
NumPy tier pads each array once and takes every neighbour from that
copy; ``_reference_otis_band`` and the other ``_reference_*`` functions
are the per-offset ``np.pad`` routine it must match byte for byte.
There is no native tier.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.config import OTISConfig
from repro.core import bitops
from repro.core.voter import _leave_one_out_union
from repro.core.windows import BitWindows
from repro.exceptions import DataFormatError
from repro.native import dispatch as _dispatch

#: Neighbour offsets (drow, dcol) for the two supported neighbourhoods.
_OFFSETS_4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_OFFSETS_8 = _OFFSETS_4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))

#: Λ → quantile mapping for the spatial thresholds.  §7.2: OTIS "needs
#: to relax the dynamic threshold that is set for identifying outliers",
#: so the usable range reaches much deeper into the XOR statistics than
#: the NGST mapping — down towards the median, where the statistic is
#: robust even when a large fraction of pixels carry flips.  Λ = 0 is
#: the bounds-screen-only degenerate case; Λ = 100 reads the 80th
#: percentile from the bottom.
_FRACTION_AT_0 = 0.20
_FRACTION_AT_100 = 0.80


# -- neighbourhoods ------------------------------------------------------------


def _reflect_pad(field: np.ndarray) -> np.ndarray:
    """``np.pad(field, 1, mode="reflect")`` by slice assignment.

    Needs at least 2 rows and 2 columns (a reflected border row is the
    second row, not the edge row itself).
    """
    rows, cols = field.shape
    padded = np.empty((rows + 2, cols + 2), dtype=field.dtype)
    padded[1:-1, 1:-1] = field
    padded[0, 1:-1] = field[1]
    padded[-1, 1:-1] = field[-2]
    padded[:, 0] = padded[:, 2]
    padded[:, -1] = padded[:, -3]
    return padded


def _neighbours(field: np.ndarray, offsets) -> np.ndarray:
    """``(len(offsets), rows, cols)``: *field* translated by each
    (drow, dcol) offset with reflected borders, all from one pad."""
    rows, cols = field.shape
    padded = _reflect_pad(field)
    out = np.empty((len(offsets), rows, cols), dtype=field.dtype)
    for i, (dr, dc) in enumerate(offsets):
        out[i] = padded[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
    return out


def _ring_median(ring: np.ndarray) -> np.ndarray:
    """``np.median(ring, axis=0)`` of a float64 8-ring.

    The mean of the 4th and 5th order statistics, summed by
    ``np.add.reduce`` as ``np.median`` does (its zero start turns
    ``-0.0 + -0.0`` into ``0.0``).  ``np.median`` returns NaN for a ring
    holding a NaN; a sort puts NaNs last, so a NaN in the top slot marks
    those rings.
    """
    ordered = np.sort(ring, axis=0)
    median = np.add.reduce(ordered[3:5], axis=0) / 2
    nan = np.isnan(ordered[-1])
    if nan.any():
        median[nan] = np.nan
    return median


def spatial_median(field: np.ndarray) -> np.ndarray:
    """Median of each pixel's 8-neighbour ring (centre excluded).

    NaN where the ring holds a NaN.  *field* must be 2-D with at least
    2 rows and 2 columns.
    """
    field = np.asarray(field)
    if field.ndim != 2 or min(field.shape) < 2:
        raise DataFormatError(
            f"spatial median needs a 2-D field of at least 2x2, got {field.shape}"
        )
    return _ring_median(_neighbours(field.astype(np.float64), _OFFSETS_8))


def _nan_spatial_median(field: np.ndarray) -> np.ndarray:
    """Spatial 8-neighbour median ignoring NaNs (fallback: global median).

    ``np.nanmedian`` over the ring: a sort puts the NaNs last, so the
    ``count`` non-NaN neighbours lead and their middle pair sits at
    ``(count - 1) // 2`` and ``count // 2`` (one element, twice, for an
    odd count), summed and halved as ``np.nanmedian`` does.  An all-NaN
    ring picks NaNs and falls back like any non-finite median.
    """
    ordered = np.sort(_neighbours(field, _OFFSETS_8), axis=0)
    count = len(_OFFSETS_8) - np.count_nonzero(np.isnan(ordered), axis=0)
    middle = np.take_along_axis(ordered, np.stack(((count - 1) // 2, count // 2)), 0)
    med = np.add.reduce(middle, axis=0) / 2
    if np.any(~np.isfinite(med)):
        finite = field[np.isfinite(field)]
        fallback = np.median(finite) if finite.size else 0.0
        med = np.where(np.isfinite(med), med, fallback)
    return med


def _trend_mask(
    values: np.ndarray, ring: np.ndarray, ring_median: np.ndarray, window: int
) -> np.ndarray:
    """True where a pixel's deviation is shared by its neighbourhood.

    A pixel deviating from the median of its 8-ring is *exempt* from
    correction if at least two ring neighbours deviate in the same
    direction by at least half the pixel's own deviation — the signature
    of a natural trend rather than an isolated bit fault (§7.2,
    hypothesis 1).  Any *window* > 1 lowers the count to one neighbour.
    """
    deviation = values - ring_median
    magnitude = np.abs(deviation)
    neighbour_dev = ring - ring_median[None]
    same_sign = np.sign(neighbour_dev) == np.sign(deviation)[None]
    big_enough = np.abs(neighbour_dev) >= 0.5 * magnitude[None]
    co_deviant = np.count_nonzero(same_sign & big_enough, axis=0)
    return co_deviant >= (1 if window > 1 else 2)


@dataclass(frozen=True)
class OTISResult:
    """Outcome of one ``Algo_OTIS`` run.

    Attributes:
        corrected: repaired field, same dtype/shape as the input.
        n_bounds_repairs: pixels replaced because they violated the
            absolute physical bounds (or were non-finite).
        n_bit_corrections: pixels repaired by the bit-voter stage.
        n_trend_exemptions: flagged pixels spared by the trend rule.
        windows: the dynamic bit windows used by the voter stage.
    """

    corrected: np.ndarray
    n_bounds_repairs: int
    n_bit_corrections: int
    n_trend_exemptions: int
    windows: BitWindows


class AlgoOTIS:
    """Spatial-locality preprocessing for OTIS radiance fields.

    Accepts a 2-D field or a 3-D ``(bands, rows, cols)`` cube of either
    ``uint16`` DN words or ``float32`` values; a cube is processed band
    by band (the spatial locality model, which the paper found superior
    to spectral pairing).
    """

    def __init__(self, config: OTISConfig | None = None) -> None:
        self.config = config or OTISConfig()

    def __call__(self, field: np.ndarray) -> OTISResult:
        field = np.asarray(field)
        if field.dtype not in (np.float32, np.uint16):
            raise DataFormatError(
                f"OTIS data must be float32 or uint16 DN, got {field.dtype}"
            )
        if field.ndim not in (2, 3):
            raise DataFormatError(
                f"expected a 2-D band or 3-D cube, got {field.ndim} dimensions"
            )
        if field.ndim == 3 and field.shape[0] == 0:
            raise DataFormatError(f"cube has no bands, got {field.shape}")
        if min(field.shape[-2:]) < 3:
            raise DataFormatError(
                f"band must be at least 3x3 for spatial voting, got {field.shape[-2:]}"
            )
        if field.ndim == 3:
            return self._process_cube(field)
        return self._process_band(field)

    def _process_cube(self, cube: np.ndarray) -> OTISResult:
        bands = []
        bounds_total = bits_total = trend_total = 0
        windows = None
        for band in cube:
            result = self._process_band(band)
            bands.append(result.corrected)
            bounds_total += result.n_bounds_repairs
            bits_total += result.n_bit_corrections
            trend_total += result.n_trend_exemptions
            windows = result.windows
        return OTISResult(
            corrected=np.stack(bands),
            n_bounds_repairs=bounds_total,
            n_bit_corrections=bits_total,
            n_trend_exemptions=trend_total,
            windows=windows,
        )

    def _process_band(self, band: np.ndarray) -> OTISResult:
        return _dispatch.call("otis_band", band, self.config)


# -- shared by both tiers --------------------------------------------------------


def _to_values(words: np.ndarray, dn_scale: float) -> np.ndarray:
    """Physical values (float64) of the stored words."""
    if words.dtype == np.uint16:
        return words.astype(np.float64) * dn_scale
    return words.astype(np.float64)


def _from_values(values: np.ndarray, dtype: np.dtype, dn_scale: float) -> np.ndarray:
    """Encode physical values back into the storage dtype."""
    if np.dtype(dtype) == np.uint16:
        dn = np.rint(values / dn_scale)
        return np.clip(dn, 0, np.iinfo(np.uint16).max).astype(np.uint16)
    return values.astype(np.float32)


def _fraction(sensitivity: float) -> float:
    """Λ mapped to the from-the-top quantile of XOR magnitudes."""
    return _FRACTION_AT_0 + (sensitivity / 100.0) * (_FRACTION_AT_100 - _FRACTION_AT_0)


def _top_quantile(flat: np.ndarray, fraction: float) -> np.ndarray:
    """The top-*fraction* quantile along the last axis."""
    total = flat.shape[-1]
    kth = int(min(total - 1, max(0, round(total - fraction * total))))
    return np.partition(flat, kth, axis=-1)[..., kth]


def _quantile_pow2(flat: np.ndarray, fraction: float) -> np.ndarray:
    """Power-of-two ceiling of the top-*fraction* quantile along the last axis."""
    return np.asarray(bitops.ceil_pow2(_top_quantile(flat, fraction)), dtype=np.uint64)


def _unset_windows(nbits: int) -> BitWindows:
    return BitWindows(msb_mask=np.uint64(0), lsb_mask=np.uint64(0), nbits=nbits)


# -- NumPy tier --------------------------------------------------------------------


def _tile_spans(n: int, tile: int) -> list[tuple[int, int, int, int]]:
    """``(start, stop, count, size)`` of an axis's run of whole tiles and
    of its remainder tile, whichever exist."""
    whole = n // tile * tile
    spans = [(0, whole, n // tile, tile)] if whole else []
    if n > whole:
        spans.append((whole, n, 1, n - whole))
    return spans


def _tile_thresholds(voters: np.ndarray, tile: int, fraction: float) -> np.ndarray:
    """Regional per-way ``V_val`` thresholds for a spatial field.

    With tiling enabled the Φ-quantile of each way's XOR magnitudes
    is taken per tile, so quiet regions get tight thresholds and the
    turbulent ones loose thresholds — the spatial analogue of the
    per-coordinate dynamic bounds of ``Algo_NGST``.  Returns either a
    ``(Υ,)`` array (global) or a ``(Υ, tile rows, tile cols)`` grid,
    one threshold per tile (see :func:`_expand_tiles`).

    Tiles of one shape — interior, right edge, bottom edge, corner —
    share one ``partition`` call, and every tile one ``ceil_pow2``.
    """
    upsilon, rows, cols = voters.shape
    if not tile or tile >= max(rows, cols):
        return _quantile_pow2(voters.reshape(upsilon, -1), fraction)
    grid = np.empty((upsilon, -(-rows // tile), -(-cols // tile)), dtype=np.uint64)
    for r0, r1, n_r, height in _tile_spans(rows, tile):
        for c0, c1, n_c, width in _tile_spans(cols, tile):
            tiles = (
                voters[:, r0:r1, c0:c1]
                .reshape(upsilon, n_r, height, n_c, width)
                .swapaxes(2, 3)
                .reshape(upsilon, n_r, n_c, height * width)
            )
            grid[:, r0 // tile : r0 // tile + n_r, c0 // tile : c0 // tile + n_c] = (
                _top_quantile(tiles, fraction)
            )
    return bitops.ceil_pow2(grid)


def _expand_tiles(grid: np.ndarray, tile: int, rows: int, cols: int) -> np.ndarray:
    """Each tile's entry of *grid* repeated over the tile's pixels."""
    return grid.repeat(tile, axis=-2)[..., :rows, :].repeat(tile, axis=-1)[..., :cols]


def _otis_band(band: np.ndarray, config: OTISConfig) -> OTISResult:
    """One band through the three stages; see ``AlgoOTIS``."""
    cfg = config
    work = band.copy()
    values = _to_values(work, cfg.dn_scale)

    # Stage 1 — absolute bounds (hypothesis 2): out-of-bounds or
    # non-finite values are faults; repair from the spatial median of
    # the neighbourhood, clipped into bounds as a last resort.  Every
    # value is finite from here on.
    lo, hi = cfg.bounds.effective()
    invalid = ~np.isfinite(values) | (values < lo) | (values > hi)
    n_bounds = int(np.count_nonzero(invalid))
    if n_bounds:
        safe = np.where(invalid, np.nan, values)
        fill = np.clip(_nan_spatial_median(safe), lo, hi)
        values = np.where(invalid, fill, values)
        work = _from_values(values, band.dtype, cfg.dn_scale)

    nbits = 32 if band.dtype == np.float32 else 16
    if cfg.sensitivity == 0:
        return OTISResult(work, n_bounds, 0, 0, _unset_windows(nbits))

    # Stages 2–3, iterated: spatial bit voting on the stored bit
    # patterns, then the trend exemption (hypothesis 1).  Corrected
    # neighbours sharpen the vote for faults the first pass could not
    # confirm, so a second pass strictly helps; iteration stops early
    # once a pass makes no change.
    offsets = _OFFSETS_4 if cfg.upsilon == 4 else _OFFSETS_8
    fraction = _fraction(cfg.sensitivity)
    n_bits = 0
    n_exempt = 0
    windows = None
    for _ in range(cfg.iterations):
        if band.dtype == np.float32:
            bits = bitops.float32_to_bits(np.ascontiguousarray(work))
        else:
            bits = work
        voters = np.bitwise_xor(bits, _neighbours(bits, offsets))
        # Windows are derived per tile, then spread over the tiles' pixels.
        thresholds = _tile_thresholds(voters, cfg.tile, fraction)
        windows = BitWindows.from_thresholds(thresholds, nbits=nbits)
        if thresholds.ndim == 1:
            expanded = thresholds[:, None, None]
        else:
            expanded = _expand_tiles(thresholds, cfg.tile, *bits.shape)
            windows = BitWindows(
                msb_mask=_expand_tiles(windows.msb_mask, cfg.tile, *bits.shape),
                lsb_mask=_expand_tiles(windows.lsb_mask, cfg.tile, *bits.shape),
                nbits=nbits,
            )
        pruned = np.where(voters.astype(np.uint64) > expanded, voters, 0).astype(
            bits.dtype
        )
        unanimous = np.bitwise_and.reduce(pruned, axis=0)
        grt = _leave_one_out_union(pruned)
        corr = windows.combine(unanimous, grt).astype(bits.dtype)

        # The 8-ring of values and its median serve both the trend test
        # and the out-of-bounds repair below; build them once, on demand.
        ring_median = None
        if cfg.trend_exemption:
            flagged = corr != 0
            if np.any(flagged):
                ring = _neighbours(values, _OFFSETS_8)
                ring_median = _ring_median(ring)
                exempt = flagged & _trend_mask(values, ring, ring_median, cfg.trend_window)
                n_exempt += int(np.count_nonzero(exempt))
                corr = np.where(exempt, np.zeros((), dtype=bits.dtype), corr)

        if not np.any(corr):
            break
        repaired_bits = np.bitwise_xor(bits, corr)
        if band.dtype == np.float32:
            repaired = bitops.bits_to_float32(repaired_bits)
        else:
            repaired = repaired_bits
        repaired_values = _to_values(repaired, cfg.dn_scale)
        # A correction must land inside the physical bounds; otherwise
        # the voter guessed wrong and the spatial median is the safer
        # repair.
        bad = (corr != 0) & (
            ~np.isfinite(repaired_values)
            | (repaired_values < lo)
            | (repaired_values > hi)
        )
        if np.any(bad):
            if ring_median is None:
                ring_median = _ring_median(_neighbours(values, _OFFSETS_8))
            fill = np.clip(ring_median, lo, hi)
            repaired_values = np.where(bad, fill, repaired_values)
            repaired = _from_values(repaired_values, band.dtype, cfg.dn_scale)
        n_bits += int(np.count_nonzero(corr))
        work = repaired.astype(band.dtype)
        values = _to_values(work, cfg.dn_scale)
    return OTISResult(work, n_bounds, n_bits, n_exempt, windows)


# -- reference tier: one np.pad per neighbour offset ------------------------------


def _shifted(field: np.ndarray, drow: int, dcol: int) -> np.ndarray:
    """The field translated by (drow, dcol) with reflected borders."""
    padded = np.pad(field, 1, mode="reflect")
    return padded[1 + drow : 1 + drow + field.shape[0], 1 + dcol : 1 + dcol + field.shape[1]]


def _reference_spatial_median(field: np.ndarray) -> np.ndarray:
    """Oracle for :func:`spatial_median`."""
    stacked = np.stack([_shifted(field, dr, dc) for dr, dc in _OFFSETS_8])
    return np.median(stacked.astype(np.float64), axis=0)


def _reference_nan_spatial_median(field: np.ndarray) -> np.ndarray:
    """Oracle for :func:`_nan_spatial_median`."""
    stacked = np.stack([_shifted(field, dr, dc) for dr, dc in _OFFSETS_8])
    with warnings.catch_warnings():
        # An all-NaN neighbourhood is legitimate here (a cluster of
        # out-of-bounds pixels); the fallback below handles it.
        warnings.simplefilter("ignore", RuntimeWarning)
        med = np.nanmedian(stacked, axis=0)
    if np.any(~np.isfinite(med)):
        finite = field[np.isfinite(field)]
        fallback = np.median(finite) if finite.size else 0.0
        med = np.where(np.isfinite(med), med, fallback)
    return med


def _reference_trend_mask(values: np.ndarray, window: int) -> np.ndarray:
    """Oracle for :func:`_trend_mask`, building its own ring."""
    ring = np.stack([_shifted(values, dr, dc) for dr, dc in _OFFSETS_8])
    ring_median = np.median(ring, axis=0)
    deviation = values - ring_median
    magnitude = np.abs(deviation)
    neighbour_dev = ring - ring_median[None]
    same_sign = np.sign(neighbour_dev) == np.sign(deviation)[None]
    big_enough = np.abs(neighbour_dev) >= 0.5 * magnitude[None]
    co_deviant = np.count_nonzero(same_sign & big_enough, axis=0)
    if window > 1:
        return co_deviant >= 1
    return co_deviant >= 2


def _reference_way_thresholds(voters: np.ndarray, tile: int, fraction: float) -> np.ndarray:
    """Oracle for :func:`_tile_thresholds` spread by :func:`_expand_tiles`:
    one ``partition`` per tile."""
    upsilon = voters.shape[0]
    rows, cols = voters.shape[1:]
    if not tile or tile >= max(rows, cols):
        flat = voters.reshape(upsilon, -1)
        return _quantile_pow2(flat, fraction)
    out = np.empty((upsilon, rows, cols), dtype=np.uint64)
    for r0 in range(0, rows, tile):
        for c0 in range(0, cols, tile):
            sub = voters[:, r0 : r0 + tile, c0 : c0 + tile]
            flat = sub.reshape(upsilon, -1)
            t = _quantile_pow2(flat, fraction)
            out[:, r0 : r0 + tile, c0 : c0 + tile] = t[:, None, None]
    return out


def _reference_otis_band(band: np.ndarray, config: OTISConfig) -> OTISResult:
    """Oracle for :func:`_otis_band`."""
    cfg = config
    work = band.copy()
    values = _to_values(work, cfg.dn_scale)

    lo, hi = cfg.bounds.effective()
    invalid = ~np.isfinite(values) | (values < lo) | (values > hi)
    n_bounds = int(np.count_nonzero(invalid))
    if n_bounds:
        safe = np.where(invalid, np.nan, values)
        fill = np.clip(_reference_nan_spatial_median(safe), lo, hi)
        values = np.where(invalid, fill, values)
        work = _from_values(values, band.dtype, cfg.dn_scale)

    nbits = 32 if band.dtype == np.float32 else 16
    if cfg.sensitivity == 0:
        return OTISResult(work, n_bounds, 0, 0, _unset_windows(nbits))

    n_bits = 0
    n_exempt = 0
    windows = None
    for _ in range(cfg.iterations):
        if band.dtype == np.float32:
            bits = bitops.float32_to_bits(np.ascontiguousarray(work))
        else:
            bits = work
        offsets = _OFFSETS_4 if cfg.upsilon == 4 else _OFFSETS_8
        voters = np.stack(
            [np.bitwise_xor(bits, _shifted(bits, dr, dc)) for dr, dc in offsets]
        )
        thresholds = _reference_way_thresholds(
            voters, cfg.tile, _fraction(cfg.sensitivity)
        )
        expanded = (
            thresholds
            if thresholds.ndim == voters.ndim
            else thresholds.reshape((-1,) + (1,) * bits.ndim)
        )
        pruned = np.where(voters.astype(np.uint64) > expanded, voters, 0).astype(
            bits.dtype
        )
        windows = BitWindows.from_thresholds(thresholds, nbits=nbits)
        unanimous = np.bitwise_and.reduce(pruned, axis=0)
        grt = _leave_one_out_union(pruned)
        corr = windows.combine(unanimous, grt).astype(bits.dtype)

        if cfg.trend_exemption:
            flagged = corr != 0
            if np.any(flagged):
                exempt = flagged & _reference_trend_mask(values, cfg.trend_window)
                n_exempt += int(np.count_nonzero(exempt))
                corr = np.where(exempt, np.zeros((), dtype=bits.dtype), corr)

        if not np.any(corr):
            break
        repaired_bits = np.bitwise_xor(bits, corr)
        if band.dtype == np.float32:
            repaired = bitops.bits_to_float32(repaired_bits)
        else:
            repaired = repaired_bits
        repaired_values = _to_values(repaired, cfg.dn_scale)
        bad = (corr != 0) & (
            ~np.isfinite(repaired_values)
            | (repaired_values < lo)
            | (repaired_values > hi)
        )
        if np.any(bad):
            fill = np.clip(_reference_spatial_median(values), lo, hi)
            repaired_values = np.where(bad, fill, repaired_values)
            repaired = _from_values(repaired_values, band.dtype, cfg.dn_scale)
        n_bits += int(np.count_nonzero(corr))
        work = repaired.astype(band.dtype)
        values = _to_values(work, cfg.dn_scale)
    return OTISResult(work, n_bounds, n_bits, n_exempt, windows)


_dispatch.register(
    "otis_band",
    numpy_impl=_otis_band,
    reference_impl=_reference_otis_band,
)
