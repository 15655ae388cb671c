"""Seeded fault-injection campaigns with flip accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import bitops
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class InjectionReport:
    """Accounting for one injection pass.

    Attributes:
        n_bits_flipped: total bits flipped across the dataset.
        n_words_hit: words (pixels/samples) with at least one flip.
        total_bits: number of bits in the dataset.
        flip_mask: per-word XOR masks actually applied.
    """

    n_bits_flipped: int
    n_words_hit: int
    total_bits: int
    flip_mask: np.ndarray

    @property
    def flip_rate(self) -> float:
        """Observed fraction of flipped bits (the empirical Γ)."""
        return self.n_bits_flipped / self.total_bits if self.total_bits else 0.0


def derive_injector_seed(rng: np.random.Generator) -> int:
    """The canonical per-trial injector seed: one draw from *rng*.

    Every experiment derives its :class:`FaultInjector` seed with
    exactly this protocol — a single ``integers(2**31)`` draw from the
    trial's generator, taken *after* dataset generation — and the DAG
    fault node (:mod:`repro.dag.build`) replays the same draw from the
    same stream position, which is what makes shared-artifact sweeps
    and per-arm trial loops bit-identical.
    """
    return int(rng.integers(2**31))


class FaultInjector:
    """Applies a fault model to datasets with reproducible seeding.

    Args:
        model: any object with a ``corrupt(data, rng) -> (corrupted,
            flip_mask)`` method (:class:`UncorrelatedFaultModel`,
            :class:`CorrelatedFaultModel`, or a custom model).
        seed: seed for the numpy Generator; omit for nondeterminism.
    """

    def __init__(self, model, seed: int | None = None) -> None:
        if not hasattr(model, "corrupt"):
            raise ConfigurationError(
                f"fault model must expose corrupt(data, rng), got {type(model).__name__}"
            )
        self.model = model
        self._rng = np.random.default_rng(seed)

    def inject(self, data: np.ndarray) -> tuple[np.ndarray, InjectionReport]:
        """Corrupt a copy of *data* and report what was flipped."""
        corrupted, mask = self.model.corrupt(data, self._rng)
        umask = mask if mask.dtype != np.float32 else bitops.float32_to_bits(mask)
        nbits = bitops.bit_width(umask.dtype)
        n_flipped = int(bitops.popcount(umask).sum())
        report = InjectionReport(
            n_bits_flipped=n_flipped,
            n_words_hit=int(np.count_nonzero(umask)),
            total_bits=int(umask.size * nbits),
            flip_mask=mask,
        )
        return corrupted, report
