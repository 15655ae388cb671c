"""Kernel-tier dispatch: native → NumPy-vectorized → ``_reference_*``.

Every hot-path kernel registers its implementations here; call sites go
through :func:`call`, which picks the tier per invocation:

* The ``REPRO_KERNEL_TIER`` environment variable, overridden inside a
  :func:`kernel_tier` block, selects ``auto`` (default), ``numpy`` or
  ``reference``.
* ``auto`` runs a kernel's compiled implementation when it has one and
  the extension loads (building it on first use — see
  :mod:`repro.native.loader`); otherwise it runs the NumPy tier, so
  pure-NumPy environments are transparently served.  Only the Eq. (2)
  correlated scan has a compiled implementation.  ``reference`` runs
  the in-tree oracles — the ground truth the other tiers are
  property-tested against.

The tiers of one kernel are bit-identical by contract
(``tests/core/test_kernel_equivalence.py``), so tier selection is a
pure performance decision and every entry point — campaigns, streams,
the serve layer, DAG sweeps — inherits it without code changes.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.native import loader

#: Tier names a caller can pin, besides ``auto``.
TIERS = ("numpy", "reference")

#: Environment variable holding the requested tier.
ENV_VAR = "REPRO_KERNEL_TIER"

_override: str | None = None
_override_lock = threading.Lock()


@dataclass(frozen=True)
class Kernel:
    """One dispatchable kernel and its tier implementations."""

    name: str
    numpy_impl: Callable
    reference_impl: Callable
    native_impl: Callable | None = None


_REGISTRY: dict[str, Kernel] = {}


def register(
    name: str,
    *,
    numpy_impl: Callable,
    reference_impl: Callable,
    native_impl: Callable | None = None,
) -> None:
    """Register (or re-register) a kernel's tier implementations."""
    _REGISTRY[name] = Kernel(name, numpy_impl, reference_impl, native_impl)


def kernels() -> dict[str, Kernel]:
    """The registered kernels, keyed by name (import side effect: none —
    callers wanting the full set should import the registering modules;
    :func:`repro.native.cli.load_all_kernels` does exactly that)."""
    return dict(_REGISTRY)


def configured_tier() -> str:
    """The requested tier: :func:`kernel_tier` override, else env var,
    else auto."""
    if _override is not None:
        return _override
    raw = os.environ.get(ENV_VAR, "auto").strip().lower()
    return raw or "auto"


def _validate_tier(tier: str) -> str:
    tier = tier.strip().lower()
    if tier not in ("auto",) + TIERS:
        raise ConfigurationError(
            f"unknown kernel tier {tier!r}; expected one of "
            f"{('auto',) + TIERS}"
        )
    return tier


def get_kernel_tier() -> str:
    """The validated tier currently in effect."""
    return _validate_tier(configured_tier())


@contextmanager
def kernel_tier(tier: str | None):
    """Pin the tier inside the block; ``None`` restores env-var/auto selection.

    Benchmarks and the property suite use it to run one kernel on every
    tier; the previous pin comes back on exit.
    """
    global _override
    pinned = None if tier is None else _validate_tier(tier)
    with _override_lock:
        previous = _override
        _override = pinned
    try:
        yield
    finally:
        with _override_lock:
            _override = previous


def _tier_of(kernel: Kernel) -> str:
    tier = get_kernel_tier()
    if tier == "reference":
        return "reference"
    if tier == "auto" and kernel.native_impl is not None and loader.available():
        return "native"
    return "numpy"


def call(name: str, *args, **kwargs):
    """Run kernel *name* on the currently selected tier."""
    kernel = _REGISTRY[name]
    return getattr(kernel, f"{_tier_of(kernel)}_impl")(*args, **kwargs)


def resolve(name: str) -> str:
    """The tier kernel *name* runs on right now."""
    return _tier_of(_REGISTRY[name])
