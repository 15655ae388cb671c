"""Time-varying fault-rate profiles: Γ as a function of frame index.

The paper's models hold Γ constant per run, but a flying instrument sees
the rate move — most prominently on South Atlantic Anomaly crossings,
where the trapped-proton flux raises the upset rate by orders of
magnitude for a bounded stretch of the orbit, then falls back.  A
profile maps the global frame index to the Γ₀ in force for that frame;
because the mapping is a pure function of the index, profiled injection
stays chunk-invariant and resume-safe exactly like the static model
(:class:`repro.stream.pipeline.InjectStage` derives each frame's RNG
from its index already).

These profiles are what the online Λ autotuner is evaluated against:
under a static Γ the tuner should converge to the static optimum and
stay there; under a step or sine profile it should track the moving
optimum and beat any single fixed Λ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError


def _check_gamma(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be within [0, 1], got {value}")


@dataclass(frozen=True)
class GammaStepProfile:
    """Square-wave Γ: *elevated* for the first ``duty`` fraction of each
    ``period``-frame cycle, *base* for the rest.

    The space-weather reading: ``period`` is the orbital period in
    frames, ``duty`` the fraction spent inside the anomaly.
    """

    base: float = 0.001
    elevated: float = 0.05
    period: int = 256
    duty: float = 0.25

    def __post_init__(self) -> None:
        _check_gamma(self.base, "base")
        _check_gamma(self.elevated, "elevated")
        if self.period < 1:
            raise ConfigurationError(f"period must be >= 1, got {self.period}")
        if not 0.0 <= self.duty <= 1.0:
            raise ConfigurationError(f"duty must be within [0, 1], got {self.duty}")

    def gamma_at(self, index: int) -> float:
        """Γ₀ in force for the frame at global *index*."""
        phase = index % self.period
        return self.elevated if phase < self.duty * self.period else self.base

    def describe(self) -> str:
        """Canonical identity string (checkpoint fingerprints, CLI echo)."""
        return (
            f"step(base={self.base}, elevated={self.elevated}, "
            f"period={self.period}, duty={self.duty})"
        )


@dataclass(frozen=True)
class GammaSineProfile:
    """Sinusoidal Γ: ``base + amplitude·sin(2π·index/period)``, clipped
    to [0, 1] — a smooth flux swell and decay over each cycle."""

    base: float = 0.01
    amplitude: float = 0.009
    period: int = 256

    def __post_init__(self) -> None:
        _check_gamma(self.base, "base")
        if self.amplitude < 0:
            raise ConfigurationError(
                f"amplitude must be >= 0, got {self.amplitude}"
            )
        if self.period < 1:
            raise ConfigurationError(f"period must be >= 1, got {self.period}")

    def gamma_at(self, index: int) -> float:
        """Γ₀ in force for the frame at global *index*."""
        value = self.base + self.amplitude * math.sin(
            2.0 * math.pi * (index % self.period) / self.period
        )
        return min(1.0, max(0.0, value))

    def describe(self) -> str:
        """Canonical identity string (checkpoint fingerprints, CLI echo)."""
        return (
            f"sine(base={self.base}, amplitude={self.amplitude}, "
            f"period={self.period})"
        )


GammaProfile = GammaStepProfile | GammaSineProfile


def parse_profile(spec: str) -> GammaProfile:
    """Parse a CLI profile spec like ``step:elevated=0.05,period=128``.

    The part before the colon picks the profile kind (``step`` or
    ``sine``); the comma-separated ``key=value`` pairs after it override
    that kind's defaults.
    """
    kind, _, rest = spec.partition(":")
    kinds = {"step": GammaStepProfile, "sine": GammaSineProfile}
    if kind not in kinds:
        raise ConfigurationError(
            f"unknown profile kind {kind!r}; expected one of {sorted(kinds)}"
        )
    kwargs: dict[str, float | int] = {}
    if rest:
        for pair in rest.split(","):
            # A pair without "=" leaves value empty, which never parses.
            key, _, value = pair.partition("=")
            try:
                kwargs[key.strip()] = (
                    int(value) if key.strip() == "period" else float(value)
                )
            except ValueError:
                raise ConfigurationError(
                    f"malformed profile parameter {pair!r}; expected key=number"
                ) from None
    try:
        return kinds[kind](**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad profile parameters for {kind!r}: {exc}") from None
