"""The trial runtime: plan → backend → assemble.

:class:`TrialRuntime` is the one entry point the rest of the library
uses.  ``run(trial_fn, n_trials, seed)`` builds a :class:`TrialPlan`,
dispatches its shards to the configured backend, emits telemetry, and
returns the per-trial values in trial order — bit-identical for every
backend because the values are reassembled by shard index and every
trial's ``Generator`` is built from the same ``SeedSequence`` child.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable

import numpy as np

from repro.cache.store import ArtifactCache
from repro.runtime.backend import Executor, SerialBackend
from repro.runtime.plan import Shard, TrialPlan
from repro.runtime.telemetry import (
    RunCompleted,
    RunStarted,
    ShardCompleted,
    Telemetry,
)

#: A trial function: fresh per-trial ``Generator`` in, one JSON-able
#: result out (a float, or a list of floats for multi-statistic trials).
TrialFn = Callable[[np.random.Generator], object]


def _jsonable(value: object) -> object:
    """Coerce a trial result to something JSON round-trips exactly."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [float(v) for v in value]
    return float(value)  # type: ignore[arg-type]


class _TrialShardFn:
    """Runs one shard of independently seeded trials.

    A class (not a closure) so the object itself pickles; whether it
    can cross a process boundary depends only on ``trial_fn`` — lambdas
    and closures reach fork-context pool workers by inheritance, and
    spawn-context workers need a picklable ``trial_fn``.
    """

    def __init__(self, trial_fn: TrialFn) -> None:
        self.trial_fn = trial_fn

    def __call__(self, shard: Shard) -> list:
        return [
            _jsonable(self.trial_fn(np.random.default_rng(seed)))
            for seed in shard.seeds
        ]


class TrialRuntime:
    """Runs seeded trial campaigns through a pluggable backend.

    Args:
        backend: execution backend; :class:`SerialBackend` when None.
        telemetry: optional :class:`Telemetry` hub to emit progress on.
        shard_size: trials per shard; defaults per-plan to
            :func:`repro.runtime.plan.default_shard_size`.
        cache: optional :class:`~repro.cache.ArtifactCache` that
            :meth:`repro.dag.DagScheduler.for_runtime` stores task-graph
            artifacts in; :meth:`run` itself ignores it.
    """

    def __init__(
        self,
        backend: Executor | None = None,
        telemetry: Telemetry | None = None,
        shard_size: int | None = None,
        cache: ArtifactCache | None = None,
    ) -> None:
        self.backend = backend if backend is not None else SerialBackend()
        self.telemetry = telemetry
        self.shard_size = shard_size
        self.cache = cache
        self._auto_keys = itertools.count()

    def run(self, trial_fn: TrialFn, n_trials: int, seed: int = 0) -> list:
        """Run *n_trials* seeded trials of *trial_fn*; values in trial order.

        Args:
            trial_fn: ``Generator -> float | sequence of floats``.
            n_trials: number of independently seeded trials.
            seed: root seed for the plan's ``SeedSequence``.

        Each call's telemetry events carry a label (``run-0000``,
        ``run-0001``, …) numbered per runtime instance.
        """
        key = f"run-{next(self._auto_keys):04d}"
        plan = TrialPlan(n_trials, seed, self.shard_size)
        shard_fn = _TrialShardFn(trial_fn)

        started_at = time.perf_counter()
        self._emit(
            RunStarted(
                key=key,
                n_trials=plan.n_trials,
                n_shards=plan.n_shards,
                backend=self.backend.describe(),
            )
        )
        results: dict[int, list] = {}
        for result in self.backend.run_shards(shard_fn, plan.shards):
            results[result.index] = result.values
            n_in_shard = plan.shards[result.index].n_trials
            self._emit(
                ShardCompleted(
                    key=key,
                    shard_index=result.index,
                    n_trials=n_in_shard,
                    elapsed_s=result.elapsed_s,
                    trials_per_sec=(
                        n_in_shard / result.elapsed_s if result.elapsed_s > 0 else 0.0
                    ),
                )
            )

        values = [value for shard in plan.shards for value in results[shard.index]]
        elapsed = time.perf_counter() - started_at
        self._emit(
            RunCompleted(
                key=key,
                n_trials=plan.n_trials,
                elapsed_s=elapsed,
                trials_per_sec=plan.n_trials / elapsed if elapsed > 0 else 0.0,
            )
        )
        return values

    def _emit(self, event) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(event)
