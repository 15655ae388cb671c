"""Fault models of §2.2: uncorrelated (Γ₀) and run-correlated (Γ_ini)
bit-flips, transit bursts, memory-layout mapping, and seeded injection.
"""

from repro.faults.correlated import CorrelatedFaultModel, correlated_flip_grid
from repro.faults.injector import FaultInjector, InjectionReport
from repro.faults.layout import (
    InterleavedLayout,
    MemoryLayout,
    PixelMajorLayout,
    RowMajorLayout,
)
from repro.faults.transit import GilbertElliottConfig, TransitFaultModel
from repro.faults.uncorrelated import UncorrelatedFaultModel, uncorrelated_flip_mask

__all__ = [
    "CorrelatedFaultModel",
    "FaultInjector",
    "GilbertElliottConfig",
    "InjectionReport",
    "InterleavedLayout",
    "MemoryLayout",
    "PixelMajorLayout",
    "RowMajorLayout",
    "TransitFaultModel",
    "UncorrelatedFaultModel",
    "correlated_flip_grid",
    "uncorrelated_flip_mask",
]
