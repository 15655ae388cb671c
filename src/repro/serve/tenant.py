"""Per-tenant stream configuration and the tenant registry.

A *tenant* is one named preprocessing contract: which faults to inject
(if any), the ``Algo_NGST`` voter parameters (Υ, Λ, N), an optional
windowed smoother, and the transport envelope (chunk size, ingest
buffer capacity, backpressure policy).  Every stream a client opens
under a tenant runs exactly the pipeline :meth:`TenantConfig.build_stages`
describes — the same stages the ``repro stream`` CLI would build from
the equivalent flags, with equal ``describe()`` strings.  Their
checkpoints still do not cross over: a pipeline's fingerprint also
names its source (``serve:<tenant>/<stream>`` here, the walk or file
there).

:class:`TenantRegistry` holds the live tenant table behind the control
plane's ``/tenants`` CRUD and persists it as one JSON file, re-read at
startup — a restarted server serves the same tenants it drained with.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.config import NGSTConfig, STRATEGY_CHOICES
from repro.exceptions import ConfigurationError, ServeError
from repro.faults import UncorrelatedFaultModel
from repro.stream.autotune_stage import AutotuneVoterStage
from repro.stream.buffer import BackpressurePolicy
from repro.stream.pipeline import InjectStage, Stage, VoterStage
from repro.stream.smoothers import smoother_stage
from repro.stream.source import check_seed

#: The tenant every fresh registry starts with.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's preprocessing contract and transport envelope.

    Attributes:
        name: registry key; also the checkpoint subdirectory name.
        gamma: Γ₀ bit-flip probability for inline injection; 0 disables
            the inject stage (the tenant streams already-faulty data).
        inject_seed: root entropy of the injector's per-frame spawn tree.
        upsilon: Υ, voter ways for ``Algo_NGST``; 0 disables the voter.
        sensitivity: Λ ∈ [0, 100] for the voter's dynamic thresholds.
        stack_frames: N, temporal variants per voter stack.
        smoother: named §4 smoother to append, or ``None``.
        window: centred window width for the smoother.
        chunk_frames: transport chunk size the pipeline processes at.
        policy: ingest-buffer backpressure policy name.
        buffer_frames: per-stream ingest buffer capacity in frames.
        durable: checkpoint every chunk boundary so streams survive a
            server restart; non-durable streams restart from frame 0.
        measure: accumulate Ψ metrics per stream.
        strategy: preprocessing strategy for the voter
            (:data:`repro.config.STRATEGY_CHOICES`).
        margin: selective-strategy low-sensitivity border width.
        header_rows: selective-strategy always-protected leading rows.
        science_fast: selective-strategy cheap path for the interior.
        autotune: run the voter as an online Λ autotuner
            (:class:`repro.stream.autotune_stage.AutotuneVoterStage`);
            ``sensitivity`` is the starting Λ and the committed
            trajectory is surfaced per tenant on ``/metrics``.
        autotune_window: sliding-window size in stacks.
        autotune_interval: re-estimate every this many stacks.
        autotune_min_delta: hysteresis dead band on |ΔΛ|.
        autotune_confirm: consecutive agreeing estimates to commit.
        autotune_seed: calibration seed of the tuner's synthetic sweep.
    """

    name: str = DEFAULT_TENANT
    gamma: float = 0.0
    inject_seed: int = 0
    upsilon: int = 4
    sensitivity: float = 50.0
    stack_frames: int = 16
    smoother: str | None = None
    window: int = 5
    chunk_frames: int = 64
    policy: str = "block"
    buffer_frames: int = 4096
    durable: bool = True
    measure: bool = True
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

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or self.name != self.name.strip():
            raise ConfigurationError(
                f"tenant name must be non-empty, trimmed, and '/'-free, "
                f"got {self.name!r}"
            )
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must be in [0, 1], got {self.gamma}")
        check_seed(self.inject_seed, "inject_seed")
        check_seed(self.autotune_seed, "autotune_seed")
        if self.smoother is not None:
            # The stage's own checks: a known name and an odd window >= 3.
            smoother_stage(self.smoother, self.window)
        if self.chunk_frames < 1:
            raise ConfigurationError(
                f"chunk_frames must be >= 1, got {self.chunk_frames}"
            )
        if self.buffer_frames < self.chunk_frames:
            raise ConfigurationError(
                f"buffer_frames ({self.buffer_frames}) must be >= "
                f"chunk_frames ({self.chunk_frames})"
            )
        BackpressurePolicy.parse(self.policy)
        if self.autotune:
            if self.autotune_window < 1 or self.autotune_interval < 1:
                raise ConfigurationError(
                    "autotune_window and autotune_interval must be >= 1"
                )
            if self.autotune_min_delta < 0 or self.autotune_confirm < 1:
                raise ConfigurationError(
                    "autotune_min_delta must be >= 0 and autotune_confirm >= 1"
                )
        if self.upsilon:
            # Surfaces bad Υ/Λ/N/strategy combinations at registration,
            # not at the first stream open.
            config = self.ngst_config()
            if self.stack_frames <= config.upsilon // 2:
                raise ConfigurationError(
                    f"stack_frames must exceed upsilon/2="
                    f"{config.upsilon // 2}, got {self.stack_frames}"
                )

    def ngst_config(self) -> NGSTConfig:
        """The validated ``Algo_NGST`` config this tenant's voter runs."""
        return NGSTConfig(
            upsilon=self.upsilon,
            sensitivity=self.sensitivity,
            strategy=self.strategy,
            margin=self.margin,
            header_rows=self.header_rows,
            science_fast=self.science_fast,
        )

    def build_stages(self) -> list[Stage]:
        """Fresh stage instances for one stream under this tenant.

        Stage identity (names, ``describe()`` output) is a pure function
        of the config, so every stream of a tenant shares a checkpoint
        fingerprint family and a restarted server resumes cleanly.
        """
        stages: list[Stage] = []
        if self.gamma > 0.0:
            stages.append(
                InjectStage(UncorrelatedFaultModel(self.gamma), seed=self.inject_seed)
            )
        if self.upsilon:
            if self.autotune:
                stages.append(
                    AutotuneVoterStage(
                        self.ngst_config(),
                        stack_frames=self.stack_frames,
                        window_stacks=self.autotune_window,
                        interval_stacks=self.autotune_interval,
                        min_delta=self.autotune_min_delta,
                        confirm=self.autotune_confirm,
                        autotune_seed=self.autotune_seed,
                        label=self.name,
                    )
                )
            else:
                stages.append(
                    VoterStage(
                        self.ngst_config(),
                        stack_frames=self.stack_frames,
                    )
                )
        if self.smoother is not None:
            stages.append(smoother_stage(self.smoother, self.window))
        return stages

    def to_dict(self) -> dict:
        """JSON-serializable form (the control plane's wire format)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantConfig":
        """Build and validate a config from untrusted JSON.

        Unknown keys raise — a typo'd field silently ignored would give
        the tenant a different pipeline than the operator asked for.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"tenant config must be a JSON object, got {type(payload).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown tenant config key(s) {sorted(unknown)}; "
                f"valid keys: {sorted(known)}"
            )
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigurationError(f"bad tenant config: {exc}") from None

    def describe(self) -> str:
        """One-line identity for logs and telemetry."""
        stages = [s.name for s in self.build_stages()]
        return (
            f"tenant {self.name}: {' -> '.join(stages) or 'passthrough'} "
            f"(chunk={self.chunk_frames}, policy={self.policy}, "
            f"buffer={self.buffer_frames}, durable={self.durable})"
        )


class TenantRegistry:
    """The live tenant table, optionally persisted as one JSON file.

    Args:
        path: persistence file; ``None`` keeps the registry in-memory
            only.  When the file exists it is loaded eagerly (a
            restarted server serves its pre-drain tenants); otherwise
            the registry starts with the ``default`` tenant.
    """

    def __init__(self, path: "str | Path | None" = None) -> None:
        self.path = None if path is None else Path(path)
        self._tenants: dict[str, TenantConfig] = {}
        if self.path is not None and self.path.exists():
            self._load()
        if not self._tenants:
            self._tenants[DEFAULT_TENANT] = TenantConfig()
            self._save()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"cannot read tenant registry {self.path}: {exc}"
            ) from None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("tenants"), list
        ):
            raise ConfigurationError(
                f"tenant registry {self.path} must be "
                f'{{"tenants": [...]}}, got {type(payload).__name__}'
            )
        for entry in payload["tenants"]:
            if isinstance(entry, dict):
                # Registries written while the adaptive strategy existed
                # persist its two knobs in every entry.  Other strategies
                # never read them, so they are dropped; an adaptive
                # tenant cannot be served as configured.
                if entry.get("strategy") == "adaptive":
                    raise ConfigurationError(
                        f"tenant {entry.get('name')!r} in {self.path} uses "
                        "the retired 'adaptive' strategy; choose one of "
                        f"{STRATEGY_CHOICES}"
                    )
                entry = {
                    key: value
                    for key, value in entry.items()
                    if key not in ("coherence_beta", "coherence_prune_ratio")
                }
            config = TenantConfig.from_dict(entry)
            self._tenants[config.name] = config

    def _save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"tenants": [t.to_dict() for t in self.list()]}
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        tmp.replace(self.path)

    def list(self) -> list[TenantConfig]:
        """Every tenant, sorted by name."""
        return [self._tenants[name] for name in sorted(self._tenants)]

    def get(self, name: str) -> TenantConfig:
        """The named tenant; :class:`ServeError` when absent."""
        try:
            return self._tenants[name]
        except KeyError:
            raise ServeError(
                f"unknown tenant {name!r}; have {sorted(self._tenants)}"
            ) from None

    def put(self, config: TenantConfig) -> None:
        """Create or replace a tenant and persist the table."""
        self._tenants[config.name] = config
        self._save()

    def delete(self, name: str) -> None:
        """Remove a tenant (the ``default`` tenant is permanent)."""
        if name == DEFAULT_TENANT:
            raise ServeError("the default tenant cannot be deleted")
        if name not in self._tenants:
            raise ServeError(f"unknown tenant {name!r}")
        del self._tenants[name]
        self._save()

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)
