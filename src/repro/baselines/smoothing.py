"""The §4 catalogue of generic value-domain smoothers.

"Some other commonly used smoothing algorithms include negative
exponential, loss, running average, inverse square, bi-square etc." —
all implemented along the temporal (leading) axis, with the same
centred-window conventions as the median baseline so the comparisons in
the ablation benches are apples-to-apples.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DataFormatError
from repro.native import dispatch as _dispatch


def _validate(pixels: np.ndarray, window: int) -> np.ndarray:
    if window < 3 or window % 2 == 0:
        raise ConfigurationError(f"window must be odd and >= 3, got {window}")
    pixels = np.asarray(pixels)
    n = pixels.shape[0] if pixels.ndim else 0
    if n < window:
        raise DataFormatError(f"need at least {window} temporal variants, got {n}")
    return pixels


def _finish(out: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Shared dtype finishing: round/clamp for integers, cast for floats.

    Every tier returns the raw float64 ``acc / wsum`` result, so the
    final rounding happens in exactly one place for all of them.
    """
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return np.clip(np.rint(out), info.min, info.max).astype(dtype)
    return out.astype(dtype)


def _weighted_window_smooth(pixels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Apply a centred weighted window along axis 0 with clamped edges.

    The float64 accumulate-and-divide runs on the selected kernel tier;
    the taps are accumulated in the same order in every tier — float
    addition is not associative, so the order is part of the
    bit-identical contract.
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    out = _dispatch.call("weighted_window_smooth", pixels, weights)
    return _finish(out, pixels.dtype)


def _numpy_weighted_accumulate(pixels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """NumPy tier: clamped edges are an edge-pad of the temporal axis, so
    each tap is a shifted view of one padded copy instead of a
    fancy-indexed gather."""
    n = pixels.shape[0]
    window = len(weights)
    half = window // 2
    pad = [(half, half)] + [(0, 0)] * (pixels.ndim - 1)
    padded = np.pad(pixels.astype(np.float64), pad, mode="edge")
    acc = np.zeros(pixels.shape, dtype=np.float64)
    wsum = weights.sum()
    for k, w in enumerate(weights):
        acc += w * padded[k : k + n]
    return acc / wsum


def _reference_weighted_accumulate(pixels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Reference tier: per-offset fancy-indexed gather accumulation."""
    n = pixels.shape[0]
    window = len(weights)
    half = window // 2
    acc = np.zeros(pixels.shape, dtype=np.float64)
    wsum = weights.sum()
    for k, w in enumerate(weights):
        offset = k - half
        idx = np.clip(np.arange(n) + offset, 0, n - 1)
        acc += w * pixels[idx].astype(np.float64)
    return acc / wsum


def _reference_weighted_window_smooth(pixels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pre-vectorization oracle for :func:`_weighted_window_smooth`."""
    return _finish(
        _reference_weighted_accumulate(pixels, np.asarray(weights, dtype=np.float64)),
        pixels.dtype,
    )


_dispatch.register(
    "weighted_window_smooth",
    numpy_impl=_numpy_weighted_accumulate,
    reference_impl=_reference_weighted_accumulate,
)


def mean_smooth(pixels: np.ndarray, window: int = 3) -> np.ndarray:
    """Plain moving-average smoothing (the paper's 'mean smoothing').

    The §4.1 discussion notes the median "yields far better results than
    Mean Smoothing, due to the better robustness of median over mean";
    this implementation exists to reproduce that comparison.
    """
    pixels = _validate(pixels, window)
    return _weighted_window_smooth(pixels, np.ones(window))


def running_average_smooth(pixels: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """Exponentially weighted running average along the temporal axis.

    ``out(i) = α·pixels(i) + (1−α)·out(i−1)``, applied forward.
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
    pixels = np.asarray(pixels)
    if pixels.shape[0] < 2:
        raise DataFormatError("need at least 2 temporal variants")
    out = np.empty(pixels.shape, dtype=np.float64)
    out[0] = pixels[0]
    for i in range(1, pixels.shape[0]):
        out[i] = alpha * pixels[i] + (1.0 - alpha) * out[i - 1]
    if np.issubdtype(pixels.dtype, np.integer):
        info = np.iinfo(pixels.dtype)
        return np.clip(np.rint(out), info.min, info.max).astype(pixels.dtype)
    return out.astype(pixels.dtype)


def negative_exponential_smooth(pixels: np.ndarray, window: int = 5, scale: float = 1.0) -> np.ndarray:
    """Centred window with weights ``exp(-|offset| / scale)``."""
    if scale <= 0:
        raise ConfigurationError(f"scale must be > 0, got {scale}")
    pixels = _validate(pixels, window)
    half = window // 2
    offsets = np.abs(np.arange(-half, half + 1))
    return _weighted_window_smooth(pixels, np.exp(-offsets / scale))


def inverse_square_smooth(pixels: np.ndarray, window: int = 5) -> np.ndarray:
    """Centred window with weights ``1 / (1 + offset²)``."""
    pixels = _validate(pixels, window)
    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    return _weighted_window_smooth(pixels, 1.0 / (1.0 + offsets**2))


def bisquare_smooth(pixels: np.ndarray, window: int = 5) -> np.ndarray:
    """Tukey bi-square (biweight) kernel over a centred window.

    Weights ``(1 − (offset/(half+1))²)²`` — zero beyond the window edge.
    """
    pixels = _validate(pixels, window)
    half = window // 2
    u = np.arange(-half, half + 1, dtype=np.float64) / (half + 1.0)
    return _weighted_window_smooth(pixels, (1.0 - u**2) ** 2)
