"""Optional compiled kernel tier (cffi/C) with graceful NumPy fallback.

One kernel is C: the Eq. (2) correlated flip scan, a raster loop in
which each cell depends on the cells flipped before it, compiled via
cffi in API mode.  Every other dispatched kernel runs in NumPy.  A
dispatch layer selects, per kernel and per call, between bit-identical
tiers::

    native (correlated scan only)  →  numpy  →  reference

controlled by the ``REPRO_KERNEL_TIER`` environment variable
(``auto``/``numpy``/``reference``) or, for one block, by the
:func:`kernel_tier` context manager.  ``auto`` runs the C scan when the
extension loads; when no compiler or extension is present it degrades
to the NumPy tier without errors, so ``repro.native`` is safe to import
everywhere.

See ``docs/PERFORMANCE.md`` ("Native kernel tier") and the ``repro
kernels`` CLI subcommand for build requirements and diagnostics.
"""

from __future__ import annotations

from repro.native.dispatch import (
    ENV_VAR,
    TIERS,
    get_kernel_tier,
    kernel_tier,
)
from repro.native.loader import (
    available as native_available,
    origin as native_origin,
    unavailable_reason as native_unavailable_reason,
)

__all__ = [
    "ENV_VAR",
    "TIERS",
    "get_kernel_tier",
    "kernel_tier",
    "native_available",
    "native_origin",
    "native_unavailable_reason",
]
