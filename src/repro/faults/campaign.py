"""Multi-trial fault-injection campaigns with summary statistics.

The paper's evaluation averages each point over many datasets (Figure 5
uses 100).  :class:`Campaign` makes that workflow first-class: it wires
a dataset generator, a fault model, a preprocessing algorithm and a
metric together, runs N independently seeded trials, and reports the
mean with a normal-approximation confidence interval, so experiment
code states *what* is averaged instead of re-implementing the loop.

The trial loop itself is delegated to
:class:`repro.runtime.TrialRuntime`: trial seeds are the
``SeedSequence.spawn`` children of the campaign seed regardless of
backend or sharding, so a campaign run across a process pool produces
bit-identical values to a serial run.  Multi-arm sweeps that share
one artifact stream across arms (the figure campaigns) are task graphs
built with :func:`repro.dag.add_arm_sweep` instead.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.runtime import TrialRuntime

#: z-scores for the supported confidence levels.
_Z_SCORES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True)
class CampaignSummary:
    """Statistics over one campaign's trials.

    Attributes:
        mean: sample mean of the metric.
        std: sample standard deviation (ddof=1; 0 for a single trial).
        ci_half_width: half-width of the confidence interval around the
            mean (normal approximation).
        n_trials: number of trials aggregated.
        values: the raw per-trial metric values.
    """

    mean: float
    std: float
    ci_half_width: float
    n_trials: int
    values: tuple[float, ...]

    @property
    def ci(self) -> tuple[float, float]:
        return (self.mean - self.ci_half_width, self.mean + self.ci_half_width)

    @classmethod
    def from_values(
        cls, values: "list[float] | tuple[float, ...]", confidence: float = 0.95
    ) -> "CampaignSummary":
        """Summarise raw per-trial values at the given confidence level."""
        if confidence not in _Z_SCORES:
            raise ConfigurationError(
                f"confidence must be one of {sorted(_Z_SCORES)}, got {confidence}"
            )
        if not values:
            raise ConfigurationError("need at least one trial value")
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        half = _Z_SCORES[confidence] * std / math.sqrt(len(values))
        return cls(
            mean=mean,
            std=std,
            ci_half_width=half,
            n_trials=len(values),
            values=tuple(float(v) for v in values),
        )


class Campaign:
    """A repeatable generate → corrupt → preprocess → measure loop.

    Args:
        generate: ``rng -> pristine dataset``.
        fault_model: object with ``corrupt(data, rng)`` (any of the
            :mod:`repro.faults` models).
        preprocess: ``corrupted -> repaired``; identity when None (the
            no-preprocessing arm).
        metric: ``(processed, pristine) -> float`` (e.g.
            :func:`repro.metrics.relative_error.psi`).
        confidence: confidence level for the interval (0.90/0.95/0.99).
    """

    def __init__(
        self,
        generate: Callable[[np.random.Generator], np.ndarray],
        fault_model,
        metric: Callable[[np.ndarray, np.ndarray], float],
        preprocess: Callable[[np.ndarray], np.ndarray] | None = None,
        confidence: float = 0.95,
    ) -> None:
        if confidence not in _Z_SCORES:
            raise ConfigurationError(
                f"confidence must be one of {sorted(_Z_SCORES)}, got {confidence}"
            )
        if not hasattr(fault_model, "corrupt"):
            raise ConfigurationError("fault_model must expose corrupt(data, rng)")
        self.generate = generate
        self.fault_model = fault_model
        self.metric = metric
        self.preprocess = preprocess
        self.confidence = confidence

    def _trial(self, rng: np.random.Generator) -> float:
        """One generate → corrupt → preprocess → measure pass."""
        pristine = self.generate(rng)
        injector = FaultInjector(self.fault_model, seed=int(rng.integers(2**31)))
        corrupted, _ = injector.inject(pristine)
        processed = self.preprocess(corrupted) if self.preprocess else corrupted
        return float(self.metric(processed, pristine))

    def run(
        self,
        n_trials: int,
        seed: int = 0,
        runtime: TrialRuntime | None = None,
    ) -> CampaignSummary:
        """Run *n_trials* independently seeded trials and summarise.

        Args:
            n_trials: number of trials (>= 1).
            seed: root seed; per-trial seeds are its ``SeedSequence``
                children.
            runtime: execution runtime; a serial
                :class:`~repro.runtime.TrialRuntime` when omitted.
                Pass one with a :class:`~repro.runtime.ProcessPoolBackend`
                to parallelise — the summary is identical either way.
        """
        if n_trials < 1:
            raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
        runtime = runtime if runtime is not None else TrialRuntime()
        values = runtime.run(self._trial, n_trials, seed)
        return CampaignSummary.from_values(values, self.confidence)

    def compare(
        self,
        other: "Campaign",
        n_trials: int,
        seed: int = 0,
        runtime: TrialRuntime | None = None,
    ) -> tuple[CampaignSummary, CampaignSummary, float]:
        """Run this and *other* on the same seeds; returns both summaries
        and the mean ratio (self / other), the paper's gain measure."""
        mine = self.run(n_trials, seed, runtime=runtime)
        theirs = other.run(n_trials, seed, runtime=runtime)
        ratio = mine.mean / theirs.mean if theirs.mean else float("inf")
        return mine, theirs, ratio
