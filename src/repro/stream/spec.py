"""One stream's preprocessing contract: :class:`StreamSpec`.

The paper preprocesses each stream as Γ₀ bit-flip injection, then
``Algo_NGST`` at (Υ, Λ, N), then an optional §4 smoother.
``repro stream`` parses its flags into a :class:`StreamSpec`, field for
flag, and a ``repro serve`` tenant
(:class:`repro.serve.tenant.TenantConfig`) is a spec plus its transport
envelope.  :meth:`StreamSpec.build_stages` is the only stage builder;
one rule decides each stage: inject iff ``gamma != 0`` or a
``profile`` is set, the voter iff ``upsilon != 0``, a smoother iff
``smoother`` is set.  Construction builds the stages once, so the stage
constructors are the one validation path and a bad value gets one
message, from a flag or from tenant JSON alike; a refusal that names a
constructor parameter is re-worded to name the spec field instead.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.config import NGSTConfig
from repro.exceptions import ConfigurationError
from repro.faults import UncorrelatedFaultModel
from repro.faults.profile import parse_profile
from repro.stream.autotune_stage import AutotuneVoterStage
from repro.stream.pipeline import InjectStage, Stage, VoterStage
from repro.stream.smoothers import smoother_stage
from repro.stream.source import check_seed
from repro.stream.telemetry import Telemetry


@contextmanager
def _field_names(**fields: str) -> Iterator[None]:
    """Re-word a stage constructor's refusal that starts with one of its
    parameter names (the keywords) to start with the spec field (the
    value) that set it, e.g. ``gamma0 must be …`` → ``gamma must be …``."""
    try:
        yield
    except ConfigurationError as exc:
        param, _, rest = str(exc).partition(" ")
        if param not in fields:
            raise
        raise ConfigurationError(f"{fields[param]} {rest}") from None


@dataclass(frozen=True)
class StreamSpec:
    """The stages of one stream and the chunk size they run at.

    Attributes:
        gamma: Γ₀ bit-flip probability for inline injection.
        inject_seed: root entropy of the injector's per-frame spawn tree.
        profile: time-varying Γ spec for the injector
            (:func:`repro.faults.profile.parse_profile`), or ``None``.
        upsilon: Υ, voter ways for ``Algo_NGST``.
        sensitivity: Λ ∈ [0, 100] for the voter's dynamic thresholds.
        stack_frames: N, temporal variants per voter stack (> Υ/2).
        strategy: preprocessing strategy for the voter
            (:data:`repro.config.STRATEGY_CHOICES`).
        margin: selective-strategy low-sensitivity border width.
        header_rows: selective-strategy always-protected leading rows.
        science_fast: selective-strategy cheap path for the interior.
        autotune: run the voter as an online Λ autotuner
            (:class:`repro.stream.autotune_stage.AutotuneVoterStage`);
            ``sensitivity`` is the starting Λ.
        autotune_window: sliding-window size in stacks.
        autotune_interval: re-estimate every this many stacks.
        autotune_min_delta: hysteresis dead band on |ΔΛ|.
        autotune_confirm: consecutive agreeing estimates to commit.
        autotune_seed: calibration seed of the tuner's synthetic sweep.
        smoother: named §4 smoother to append, or ``None``.
        window: centred window width for the smoother.
        chunk_frames: transport chunk size the pipeline processes at.
    """

    gamma: float = 0.0
    inject_seed: int = 0
    profile: str | None = None
    upsilon: int = 4
    sensitivity: float = 50.0
    stack_frames: int = 16
    strategy: str = "fixed"
    margin: int = 0
    header_rows: int = 0
    science_fast: bool = False
    autotune: bool = False
    autotune_window: int = 2
    autotune_interval: int = 1
    autotune_min_delta: float = 15.0
    autotune_confirm: int = 2
    autotune_seed: int = 0
    smoother: str | None = None
    window: int = 5
    chunk_frames: int = 64

    def __post_init__(self) -> None:
        # Seeds are checked even when their stage is off, so a spec
        # never holds a value that would fail once the stage is on.
        check_seed(self.inject_seed, "inject_seed")
        check_seed(self.autotune_seed, "autotune_seed")
        if self.chunk_frames < 1:
            raise ConfigurationError(
                f"chunk_frames must be >= 1, got {self.chunk_frames}"
            )
        self.build_stages()

    def build_stages(
        self, telemetry: Telemetry | None = None, label: str = ""
    ) -> list[Stage]:
        """Fresh stages for one stream; their ``describe()`` strings are
        a pure function of the spec.  *telemetry* and *label* reach the
        autotuner, which emits its ``LambdaAdjusted`` events itself."""
        stages: list[Stage] = []
        if self.gamma != 0 or self.profile is not None:
            profile = None if self.profile is None else parse_profile(self.profile)
            with _field_names(gamma0="gamma"):
                model = UncorrelatedFaultModel(self.gamma)
            stages.append(InjectStage(model, seed=self.inject_seed, profile=profile))
        if self.upsilon != 0:
            config = NGSTConfig(
                upsilon=self.upsilon,
                sensitivity=self.sensitivity,
                strategy=self.strategy,
                margin=self.margin,
                header_rows=self.header_rows,
                science_fast=self.science_fast,
            )
            if self.autotune:
                with _field_names(
                    window_stacks="autotune_window",
                    interval_stacks="autotune_interval",
                    min_delta="autotune_min_delta",
                    confirm="autotune_confirm",
                ):
                    tuner = AutotuneVoterStage(
                        config,
                        stack_frames=self.stack_frames,
                        window_stacks=self.autotune_window,
                        interval_stacks=self.autotune_interval,
                        min_delta=self.autotune_min_delta,
                        confirm=self.autotune_confirm,
                        autotune_seed=self.autotune_seed,
                        telemetry=telemetry,
                        label=label,
                    )
                stages.append(tuner)
            else:
                stages.append(VoterStage(config, stack_frames=self.stack_frames))
        if self.smoother is not None:
            stages.append(smoother_stage(self.smoother, self.window))
        return stages
