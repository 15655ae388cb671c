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
backend or sharding, so a campaign run across a process pool — or
killed and resumed from a checkpoint — produces bit-identical values
to a serial run.  Multi-arm comparisons (:meth:`Campaign.run_arms`)
additionally emit a dataset → fault → score → aggregate task graph
(:meth:`Campaign.graph`) scheduled by :class:`repro.dag.DagScheduler`,
whose completed-work state lives in the artifact store rather than a
checkpoint file.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.runtime import Arm, DatasetSpec, FaultSpec, TrialRuntime

#: z-scores for the supported confidence levels.
_Z_SCORES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}

#: Process-unique tokens for campaigns run without an explicit dataset
#: cache key: distinct campaigns must never share cache entries.
_UNKEYED_DATASETS = itertools.count()


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
        key: str | None = None,
    ) -> CampaignSummary:
        """Run *n_trials* independently seeded trials and summarise.

        Args:
            n_trials: number of trials (>= 1).
            seed: root seed; per-trial seeds are its ``SeedSequence``
                children.
            runtime: execution runtime; a serial
                :class:`~repro.runtime.TrialRuntime` when omitted.
                Pass one with a :class:`~repro.runtime.ProcessPoolBackend`
                to parallelise, or with a checkpoint store to make the
                campaign resumable — the summary is identical either way.
            key: checkpoint identity for this run (see
                :meth:`TrialRuntime.run`).
        """
        if n_trials < 1:
            raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
        runtime = runtime if runtime is not None else TrialRuntime()
        values = runtime.run(self._trial, n_trials, seed, key=key)
        return CampaignSummary.from_values(values, self.confidence)

    def graph(
        self,
        arms: Mapping[str, Callable[[np.ndarray], np.ndarray] | None],
        n_trials: int,
        seed: int = 0,
        dataset_key: tuple | None = None,
    ):
        """This campaign's multi-arm sweep as a task graph.

        Returns ``(graph, aggregate_node)``: a
        :class:`~repro.dag.TaskGraph` with one dataset + fault node
        pair per trial, one pure score node per (trial, arm), and an
        aggregate node stacking each arm's per-trial metric values.
        :meth:`run_arms` schedules this graph; callers wanting to merge
        several campaigns into one run (or render it with
        ``repro dag show``) can build it directly.
        """
        from repro.dag import TaskGraph, add_arm_sweep

        if n_trials < 1:
            raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
        if not arms:
            raise ConfigurationError("need at least one arm")
        if dataset_key is None:
            dataset_key = ("campaign-unkeyed", next(_UNKEYED_DATASETS))
        if hasattr(self.fault_model, "cache_key_parts"):
            fault = FaultSpec.of(self.fault_model)
        else:
            fault = FaultSpec(
                model=self.fault_model,
                key_parts=(type(self.fault_model).__name__, dataset_key),
            )

        def make_evaluate(preprocess):
            def evaluate(corrupted, pristine):
                processed = preprocess(corrupted) if preprocess else corrupted
                return float(self.metric(processed, pristine))

            return evaluate

        task_graph = TaskGraph("campaign")
        aggregate = add_arm_sweep(
            task_graph,
            "campaign",
            [Arm(name, make_evaluate(fn)) for name, fn in arms.items()],
            DatasetSpec(build=self.generate, key_parts=dataset_key),
            fault,
            n_trials,
            seed,
        )
        return task_graph, aggregate

    def run_arms(
        self,
        arms: Mapping[str, Callable[[np.ndarray], np.ndarray] | None],
        n_trials: int,
        seed: int = 0,
        runtime: TrialRuntime | None = None,
        key: str | None = None,
        dataset_key: tuple | None = None,
    ) -> dict[str, CampaignSummary]:
        """Run several preprocessing arms over one shared artifact stream.

        Emits the campaign's task graph (:meth:`graph`) and schedules
        it on the runtime's backend: generation and injection run
        **once per trial** and every arm scores the same
        corrupted/pristine pair, so each summary is bit-identical to
        the corresponding per-arm :meth:`run` — at roughly
        ``1/len(arms)`` the production cost, less again when the
        runtime carries a warm artifact cache.

        Args:
            arms: name → preprocessing callable (None for the
                no-preprocessing arm); names key the returned dict.
            n_trials: number of trials (>= 1).
            seed: root seed, as in :meth:`run`.
            runtime: execution runtime, as in :meth:`run`.
            key: accepted for signature compatibility with :meth:`run`;
                the DAG path needs no checkpoint identity because
                completed nodes are recovered from the artifact store.
            dataset_key: canonical cache identity of the generator
                configuration; when omitted, a process-unique key keeps
                the artifact cache correct but defeats cross-call reuse
                (and cross-run recovery).
        """
        from repro.dag import DagScheduler, aggregate_values

        del key  # recovery is filesystem-based; see the docstring
        runtime = runtime if runtime is not None else TrialRuntime()
        task_graph, aggregate = self.graph(
            arms, n_trials, seed, dataset_key=dataset_key
        )
        scheduler = DagScheduler.for_runtime(runtime)
        outputs = scheduler.run(task_graph, targets=(aggregate,))
        return {
            name: CampaignSummary.from_values(
                [float(v) for v in values], self.confidence
            )
            for name, values in aggregate_values(outputs[aggregate]).items()
        }

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
