"""Evaluation metrics: average relative error Ψ (Eqs. 3–4), bit-level
confusion accounting, and execution-overhead timing."""

from repro.metrics.confusion import BitConfusion, bit_confusion
from repro.metrics.overhead import OverheadTimer, time_callable
from repro.metrics.relative_error import improvement_factor, psi

__all__ = [
    "BitConfusion",
    "OverheadTimer",
    "bit_confusion",
    "improvement_factor",
    "psi",
    "time_callable",
]
