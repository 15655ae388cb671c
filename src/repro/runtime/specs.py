"""Declarative arm-sweep specs: what to generate, corrupt and score.

Every arm of a Λ sweep (Λ value, algorithm baseline, no-preprocessing
control) at one (seed, Γ) grid point evaluates bit-identical pristine
and corrupted arrays, because every arm's trial ``i`` uses the same
``SeedSequence`` child and draws from it in the same order.  These specs
describe that shared production declaratively so
:func:`repro.dag.add_arm_sweep` can build it once per trial:

* :class:`DatasetSpec` / :class:`FaultSpec` carry the canonical key
  parts of the content-addressed artifacts they produce;
* :class:`Arm` is one pure scoring function over those artifacts.

Arms must be *pure*: ``evaluate(corrupted, pristine)`` may not consume
random state or mutate its (read-only) inputs.  Under that contract a
shared-artifact sweep returns exactly the values per-arm plans would.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError

#: An arm evaluator: ``(corrupted, pristine) -> float | list of floats``.
ArmFn = Callable[[np.ndarray, np.ndarray], object]


@dataclass(frozen=True)
class DatasetSpec:
    """Declarative pristine-dataset production.

    Attributes:
        build: ``rng -> pristine array``; must be a deterministic
            function of its configuration and the generator stream.
        key_parts: canonical identity of the generator configuration
            (dataclasses/tuples/scalars — see
            :func:`repro.cache.fingerprint.canonicalize`).  Every field
            that changes the output must be represented here.
    """

    build: Callable[[np.random.Generator], np.ndarray]
    key_parts: tuple


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault-realization production.

    Attributes:
        model: any object with ``corrupt(data, rng)``.
        key_parts: canonical identity of the fault parameters.
    """

    model: object
    key_parts: tuple

    @classmethod
    def of(cls, model) -> "FaultSpec":
        """Derive the spec from a model exposing ``cache_key_parts()``."""
        parts = getattr(model, "cache_key_parts", None)
        if parts is None:
            raise ConfigurationError(
                f"{type(model).__name__} does not expose cache_key_parts(); "
                "construct FaultSpec with explicit key_parts instead"
            )
        return cls(model=model, key_parts=tuple(parts()))


@dataclass(frozen=True)
class Arm:
    """One preprocessing arm evaluated against the shared artifacts.

    Attributes:
        name: unique label within its sweep (also the result key).
        evaluate: pure ``(corrupted, pristine) -> value`` — no RNG, no
            mutation of the read-only inputs.
    """

    name: str
    evaluate: ArmFn
