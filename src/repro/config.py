"""Frozen configuration dataclasses for the preprocessing algorithms.

Every tunable that the paper exposes is collected here so that experiments
and applications share a single validated source of truth:

* ``upsilon`` (Υ) — number of temporal/spatial neighbours consulted per
  pixel; must be even and positive (§3.3).  The paper finds Υ = 4 optimal
  for both benchmarks (§3.3) with dataset-dependent exceptions (§6).
* ``sensitivity`` (Λ) — 0…100 scaling of the algorithm's aggressiveness
  (§3.2).  Λ = 0 degrades to a FITS-header sanity analysis only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError


def _check_upsilon(upsilon: int) -> None:
    if not isinstance(upsilon, int) or isinstance(upsilon, bool):
        raise ConfigurationError(f"upsilon must be an int, got {type(upsilon).__name__}")
    if upsilon <= 0 or upsilon % 2 != 0:
        raise ConfigurationError(f"upsilon must be a positive even integer, got {upsilon}")


def _check_sensitivity(sensitivity: float) -> None:
    if not 0 <= sensitivity <= 100:
        raise ConfigurationError(f"sensitivity must be within [0, 100], got {sensitivity}")


#: Preprocessing strategies selectable through :class:`NGSTConfig`.
#: ``fixed`` is Algorithm 1 exactly as the paper states it; ``selective``
#: routes only high-sensitivity regions through the full pipeline (Wang
#: et al.-style application-aware protection).  See
#: :mod:`repro.core.strategies`.
STRATEGY_CHOICES = ("fixed", "selective")


def _check_probability(p: float, name: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"{name} must be within [0, 1], got {p}")


@dataclass(frozen=True)
class NGSTConfig:
    """Parameters of ``Algo_NGST`` (Algorithm 1).

    Attributes:
        upsilon: Υ, the (even) number of neighbours each pixel consults,
            Υ/2 forward and Υ/2 backward in the temporal stack.
        sensitivity: Λ ∈ [0, 100]; higher values widen bit-window B and
            admit more voters (more corrections, more false alarms).
        per_coordinate_thresholds: derive the dynamic V_val thresholds per
            image coordinate (the fully dynamic behaviour of §3.3).  When
            False a single global threshold per pairing way is used.
        strategy: one of :data:`STRATEGY_CHOICES`.  ``fixed`` (default)
            runs Algorithm 1 unchanged; ``selective`` dispatches to
            :func:`repro.core.strategies.run_selective`.  The three
            region fields below are refused under ``fixed``, which would
            ignore them.
        margin: border width (in pixels, every spatial axis) classified
            low-sensitivity by the ``selective`` strategy's region map.
            0 = no margin region.
        header_rows: leading rows along the first spatial axis that are
            always fully protected (telemetry/header region), overriding
            ``margin``/``science_fast``.
        science_fast: route the interior science region through the cheap
            unanimous-vote path too (protect only the header rows).  With
            the defaults (margin=0, header_rows=0, science_fast=False)
            every pixel is high-sensitivity and ``selective`` degenerates
            byte-identically to ``fixed``.
    """

    upsilon: int = 4
    sensitivity: float = 50.0
    per_coordinate_thresholds: bool = True
    strategy: str = "fixed"
    margin: int = 0
    header_rows: int = 0
    science_fast: bool = False

    def __post_init__(self) -> None:
        _check_upsilon(self.upsilon)
        _check_sensitivity(self.sensitivity)
        if self.strategy not in STRATEGY_CHOICES:
            raise ConfigurationError(
                f"strategy must be one of {STRATEGY_CHOICES}, got {self.strategy!r}"
            )
        if self.margin < 0:
            raise ConfigurationError(f"margin must be >= 0, got {self.margin}")
        if self.header_rows < 0:
            raise ConfigurationError(
                f"header_rows must be >= 0, got {self.header_rows}"
            )
        if self.strategy != "selective" and (
            self.margin or self.header_rows or self.science_fast
        ):
            raise ConfigurationError(
                "margin, header_rows and science_fast apply only to "
                f"strategy 'selective', got strategy {self.strategy!r}"
            )

    @property
    def half_upsilon(self) -> int:
        """Υ/2 — neighbours consulted in each direction."""
        return self.upsilon // 2


@dataclass(frozen=True)
class OTISBounds:
    """Absolute physical bounds for OTIS radiance data (§7.2, hypothesis 2).

    Values outside ``[lower, upper]`` are theoretically impossible for the
    sensed physical quantity and are outright identified as faults.  The
    optional geographic bounds tighten the window further ("tropical" or
    "arctic" cut-offs in the paper's terminology).
    """

    lower: float = 0.0
    upper: float = 200.0
    geographic_lower: float | None = None
    geographic_upper: float | None = None

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"lower bound {self.lower} must be < upper bound {self.upper}"
            )
        lo, hi = self.effective()
        if not lo < hi:
            raise ConfigurationError(
                f"geographic bounds [{lo}, {hi}] are empty or inverted"
            )

    def effective(self) -> tuple[float, float]:
        """The tightest applicable (lower, upper) pair."""
        lo = self.lower if self.geographic_lower is None else max(self.lower, self.geographic_lower)
        hi = self.upper if self.geographic_upper is None else min(self.upper, self.geographic_upper)
        return lo, hi


@dataclass(frozen=True)
class OTISConfig:
    """Parameters of ``Algo_OTIS`` (§7.2–7.3).

    OTIS lacks temporal redundancy, so the voter neighbourhood is spatial
    (2-D).  False alarms are costlier than for NGST, hence the relaxed
    default sensitivity and the trend-exemption machinery.

    Attributes:
        upsilon: number of spatial neighbours consulted (4 = the von
            Neumann neighbourhood; 8 adds diagonals).
        sensitivity: Λ ∈ [0, 100], as for NGST but applied to spatial
            XOR statistics of the float32 bit patterns.
        bounds: absolute/geographic physical bounds; out-of-bounds pixels
            are unconditionally repaired (hypothesis 2).
        trend_exemption: when True, deviant pixels whose neighbourhood
            shows the same deviation trend are treated as genuine natural
            phenomena and left untouched (hypothesis 1).
        trend_window: strictness of the trend test, which always reads
            the pixel's fixed 8-neighbour ring.  1 exempts a deviant
            pixel when at least two ring neighbours share its deviation;
            any larger value needs only one (2 and 5 behave alike).
        dn_scale: physical value per DN count for uint16 fixed-point
            storage (full scale = 65535 × dn_scale ≈ 262, deliberately
            wider than the default physical upper bound of 200 so that
            flips into the physically impossible headroom are caught by
            the bounds screen).
        tile: side of the square tiles over which the dynamic thresholds
            are derived, making the bounds *regional*: quiet regions get
            tight thresholds, turbulent regions loose ones (§3.3's
            dynamic behaviour applied spatially).  0 = one global
            threshold per way.
        iterations: voter-stage passes; corrected neighbours sharpen the
            vote for remaining faults, so a second pass catches flips
            the first could not confirm (diminishing returns beyond 2–3).
    """

    upsilon: int = 4
    sensitivity: float = 60.0
    bounds: OTISBounds = field(default_factory=OTISBounds)
    trend_exemption: bool = True
    trend_window: int = 1
    dn_scale: float = 0.004
    tile: int = 16
    iterations: int = 2

    def __post_init__(self) -> None:
        if self.upsilon not in (4, 8):
            raise ConfigurationError(
                f"OTIS upsilon must be 4 or 8 (2-D neighbourhood), got {self.upsilon}"
            )
        _check_sensitivity(self.sensitivity)
        if self.trend_window < 1:
            raise ConfigurationError(
                f"trend_window must be >= 1, got {self.trend_window}"
            )
        if self.dn_scale <= 0:
            raise ConfigurationError(
                f"dn_scale must be > 0, got {self.dn_scale}"
            )
        if self.tile < 0:
            raise ConfigurationError(f"tile must be >= 0, got {self.tile}")
        if self.iterations < 1:
            raise ConfigurationError(
                f"iterations must be >= 1, got {self.iterations}"
            )


@dataclass(frozen=True)
class UncorrelatedFaultConfig:
    """The §2.2.2 fault model: i.i.d. bit-flips with probability Γ₀."""

    gamma0: float = 0.01

    def __post_init__(self) -> None:
        _check_probability(self.gamma0, "gamma0")


@dataclass(frozen=True)
class CorrelatedFaultConfig:
    """The §2.2.3 fault model: run-length correlated flips, Eq. (2).

    Attributes:
        gamma_ini: Γ_ini, the base probability with which a fresh run of
            flips initiates.  Must be < 0.5 for the geometric series bound
            Γ_ini/(1-Γ_ini) to stay below 1.
        max_run_terms: truncation of the Eq. (2) series; the terms decay
            geometrically so a small cap loses nothing measurable.
    """

    gamma_ini: float = 0.05
    max_run_terms: int = 64

    def __post_init__(self) -> None:
        _check_probability(self.gamma_ini, "gamma_ini")
        if self.gamma_ini >= 0.5:
            raise ConfigurationError(
                f"gamma_ini must be < 0.5 for Eq. (2) to converge, got {self.gamma_ini}"
            )
        if self.max_run_terms < 1:
            raise ConfigurationError(
                f"max_run_terms must be >= 1, got {self.max_run_terms}"
            )


@dataclass(frozen=True)
class NGSTDatasetConfig:
    """Parameters of the Eq. (1) Gaussian-random-walk dataset generator.

    Π(i+1) = Π(i) + Θᵢ with Θᵢ ~ N(0, σ).  Values are 16-bit unsigned;
    overflows are truncated to the representable maximum as in §6.

    The default σ = 25 is our calibration of "σ representative of the
    simulated datasets from the NGST Mission Simulator": consecutive
    readouts of one baseline sample the same scene within short
    intervals, so natural variation is read-noise-scale.  At this σ the
    preprocessing gains land in the 50–1000× band Figure 2 reports;
    σ = 250 and σ = 8000 reappear in the Figure 6 turbulence sweep.
    """

    n_variants: int = 64
    sigma: float = 25.0
    initial_value: int = 27000
    #: Detector background level: "there will always be some background
    #: noise present at the detector causing non-zero reads" (§5), so
    #: walks never reach zero and relative error stays well-defined.
    background_floor: int = 32

    def __post_init__(self) -> None:
        if self.n_variants < 2:
            raise ConfigurationError(
                f"n_variants must be >= 2, got {self.n_variants}"
            )
        if self.sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {self.sigma}")
        if not 0 <= self.initial_value <= 0xFFFF:
            raise ConfigurationError(
                f"initial_value must fit in 16 bits, got {self.initial_value}"
            )
        if not 0 <= self.background_floor <= self.initial_value:
            raise ConfigurationError(
                f"background_floor must be within [0, initial_value], "
                f"got {self.background_floor}"
            )
