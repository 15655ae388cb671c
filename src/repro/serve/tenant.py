"""Per-tenant stream configuration and the tenant registry.

A *tenant* is one named preprocessing contract: a
:class:`~repro.stream.spec.StreamSpec` (which faults to inject, if any,
the ``Algo_NGST`` voter parameters (Υ, Λ, N), an optional windowed
smoother, the chunk size) plus one serve-only setting, durability.  Every
stream a client opens under a tenant runs exactly the stages
:meth:`~repro.stream.spec.StreamSpec.build_stages` builds — the same
stages ``repro stream`` builds from the equal flags, with equal
``describe()`` strings.  Their checkpoints still do not cross over: a
pipeline's fingerprint also names its source
(``serve:<tenant>/<stream>`` here, the walk or file there).

:class:`TenantRegistry` holds the live tenant table behind the control
plane's ``/tenants`` CRUD and persists it as one JSON file, re-read at
startup — a restarted server serves the same tenants it drained with.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.config import STRATEGY_CHOICES
from repro.exceptions import ConfigurationError, ServeError
from repro.stream.spec import StreamSpec

#: The tenant every fresh registry starts with.
DEFAULT_TENANT = "default"

#: Keys that registries written by earlier versions persist and that no
#: tenant reads any more: the retired adaptive strategy's two knobs,
#: ``measure`` (Ψ accounting is always on), and the two knobs of the
#: retired ingest ring (each message now lands whole).  Dropped on load.
_RETIRED_KEYS = (
    "coherence_beta",
    "coherence_prune_ratio",
    "measure",
    "policy",
    "buffer_frames",
)


@dataclass(frozen=True)
class TenantConfig(StreamSpec):
    """One tenant's stream spec, name and durability.

    The stage fields are :class:`~repro.stream.spec.StreamSpec`'s; a
    tenant adds only these.

    Attributes:
        name: registry key; also the checkpoint subdirectory name.
        durable: checkpoint every chunk boundary so streams survive a
            server restart; non-durable streams restart from frame 0.
    """

    name: str = DEFAULT_TENANT
    durable: bool = True

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or self.name != self.name.strip():
            raise ConfigurationError(
                f"tenant name must be non-empty, trimmed, and '/'-free, "
                f"got {self.name!r}"
            )
        super().__post_init__()

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
            f"(chunk={self.chunk_frames}, durable={self.durable})"
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
                # An adaptive tenant cannot be served as configured; the
                # other retired keys are read by nothing and dropped.
                if entry.get("strategy") == "adaptive":
                    raise ConfigurationError(
                        f"tenant {entry.get('name')!r} in {self.path} uses "
                        "the retired 'adaptive' strategy; choose one of "
                        f"{STRATEGY_CHOICES}"
                    )
                entry = {
                    key: value
                    for key, value in entry.items()
                    if key not in _RETIRED_KEYS
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
