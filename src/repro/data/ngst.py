"""NGST dataset generation — the Eq. (1) analytical model (§2.2.1).

Each image coordinate carries N pristine temporal variants

    Π(i+1) = Π(i) + Θᵢ,   Θᵢ ~ N(0, σ)

with σ representative of the NGST Mission Simulator datasets.  Values
are 16-bit unsigned; overflows are truncated to the representable
maximum and underflows to zero, per the §6 convention for extremely
turbulent synthetic datasets.
"""

from __future__ import annotations

import numpy as np

from repro.config import NGSTDatasetConfig
from repro.exceptions import ConfigurationError

U16_MAX = np.iinfo(np.uint16).max


def generate_walk(
    config: NGSTDatasetConfig,
    rng: np.random.Generator,
    shape: tuple[int, ...] = (),
) -> np.ndarray:
    """Generate pristine temporal variants, shape ``(N,) + shape`` uint16.

    Every trailing coordinate runs its own independent Gaussian walk
    starting at ``config.initial_value``.
    """
    steps = rng.standard_normal((config.n_variants - 1,) + tuple(shape))
    steps *= config.sigma
    return walk_from_steps(float(config.initial_value), steps, config.background_floor)


def walk_from_steps(
    start: float | np.ndarray, steps: np.ndarray, floor: int
) -> np.ndarray:
    """The uint16 walk ``start, start + Θ₀, start + Θ₀ + Θ₁, …`` along axis 0.

    *steps* holds the N − 1 increments Θᵢ; *start* is a scalar or an
    array broadcast over the trailing axes.  Values are rounded, then
    clipped to ``[floor, 65535]``.  This is the one Eq. (1) formula:
    :func:`generate_walk` draws its increments as σ·z with z standard
    normal, which consumes the Generator exactly as ``rng.normal(0, σ)``
    does and yields the same floats, so a caller holding the z can
    rebuild any σ's walk without drawing again.
    """
    walk = np.empty((steps.shape[0] + 1,) + steps.shape[1:], dtype=np.float64)
    walk[0] = start
    walk[1:] = start + np.cumsum(steps, axis=0)
    return np.clip(np.rint(walk), floor, U16_MAX).astype(np.uint16)


def synthetic_sky(
    height: int,
    width: int,
    rng: np.random.Generator,
    background: float = 1200.0,
    n_sources: int = 24,
    peak: float = 30000.0,
    psf_sigma: float = 1.8,
) -> np.ndarray:
    """A synthetic infrared sky frame: flat background plus point sources.

    Point sources get Gaussian point-spread functions, approximating what
    an NGST detector would integrate; returned as float64 (a base image
    that :func:`generate_image_stack` turns into temporal variants).
    """
    if height < 1 or width < 1:
        raise ConfigurationError(f"frame must be non-empty, got {height}x{width}")
    frame = np.full((height, width), background, dtype=np.float64)
    ys, xs = np.mgrid[0:height, 0:width]
    for _ in range(n_sources):
        cy = rng.uniform(0, height)
        cx = rng.uniform(0, width)
        amplitude = rng.uniform(0.05, 1.0) * peak
        frame += amplitude * np.exp(
            -((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * psf_sigma**2)
        )
    return frame


def generate_image_stack(
    config: NGSTDatasetConfig,
    rng: np.random.Generator,
    height: int,
    width: int,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """N temporal variants of a 2-D frame, shape ``(N, height, width)``.

    Each pixel follows Eq. (1) starting from the *base* image (a
    synthetic sky by default), so spatially distinct regions keep their
    own intensities while exhibiting the temporal correlation model.
    """
    if base is None:
        base = synthetic_sky(height, width, rng)
    if base.shape != (height, width):
        raise ConfigurationError(
            f"base shape {base.shape} does not match {height}x{width}"
        )
    steps = rng.normal(0.0, config.sigma, size=(config.n_variants - 1, height, width))
    return walk_from_steps(base, steps, config.background_floor)
