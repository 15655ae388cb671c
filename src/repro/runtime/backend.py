"""Execution backends: where the DAG scheduler's shards actually run.

Every backend implements the one-method :class:`Executor` interface —
take a shard function and a list of shards, yield a
:class:`ShardResult` per shard as each completes (possibly out of
order) — so everything above them (telemetry, result assembly) is
backend-agnostic.  The scheduler (:mod:`repro.dag.scheduler`)
dispatches each ready graph node as one shard.

:class:`ProcessPoolBackend` prefers a fork-context ``multiprocessing``
pool and passes the shard function to workers through the pool
initializer, which fork inherits rather than pickles.  Graph nodes
typically run closures over lambdas (dataset generators,
preprocessing arms) that could never cross a pickle boundary; fork
inheritance lets exactly the same graph run serially or in
parallel.  Where fork is unavailable (macOS with threads, Windows) the
backend falls back to the platform's spawn context, which pickles the
initializer arguments — shard functions must then be picklable
(module-level functions, or closures rebuilt worker-side from
picklable specs).  A pre-flight pickle check catches unpicklable shard
functions before any worker starts: the backend warns once per process
with the underlying pickle failure reason and degrades to in-process
serial execution, so the run still completes (values are backend-
independent) instead of deadlocking the pool or dying mid-campaign.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import warnings
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Shard:
    """One unit of work handed to a backend.

    Attributes:
        index: the shard's position in its batch; results come back
            tagged with it.
    """

    index: int


#: A shard function: runs one shard, returns its values in order.
ShardFn = Callable[[Shard], list]


@dataclass(frozen=True)
class ShardResult:
    """One completed shard.

    Attributes:
        index: the shard's position in its batch.
        values: the shard function's results, in order.
        elapsed_s: wall-clock seconds spent running the shard (measured
            inside the worker, so it excludes queueing).
    """

    index: int
    values: list
    elapsed_s: float


class Executor(ABC):
    """Interface every execution backend implements.

    Attributes:
        jobs: worker count (1 for serial backends).
    """

    jobs: int = 1

    @abstractmethod
    def run_shards(
        self, shard_fn: ShardFn, shards: Sequence[Shard]
    ) -> Iterator[ShardResult]:
        """Run *shard_fn* over *shards*, yielding results as they finish.

        Results may arrive out of shard order; callers reassemble by
        ``ShardResult.index``.
        """

    def describe(self) -> str:
        """Human-readable backend identity for telemetry."""
        return f"{type(self).__name__}(jobs={self.jobs})"


def _timed_shard(shard_fn: ShardFn, shard: Shard) -> ShardResult:
    start = time.perf_counter()
    values = list(shard_fn(shard))
    return ShardResult(
        index=shard.index, values=values, elapsed_s=time.perf_counter() - start
    )


class SerialBackend(Executor):
    """Runs every shard in the calling process, in batch order."""

    jobs = 1

    def run_shards(
        self, shard_fn: ShardFn, shards: Sequence[Shard]
    ) -> Iterator[ShardResult]:
        for shard in shards:
            yield _timed_shard(shard_fn, shard)


#: Worker-process slot for the inherited shard function; set by
#: :func:`_init_worker` in each pool worker.
_WORKER_SHARD_FN: ShardFn | None = None


def _init_worker(shard_fn: ShardFn) -> None:
    global _WORKER_SHARD_FN
    _WORKER_SHARD_FN = shard_fn


def _run_worker_shard(shard: Shard) -> ShardResult:
    assert _WORKER_SHARD_FN is not None, "pool worker not initialised"
    return _timed_shard(_WORKER_SHARD_FN, shard)


#: Once-per-process latch for the spawn pre-flight fallback warning, so
#: a sweep with hundreds of runs reports the degradation exactly once.
_SPAWN_FALLBACK_WARNED = False


def default_start_method() -> str:
    """The platform's best start method: ``fork`` when available.

    Fork inherits non-picklable shard functions; platforms without it
    (Windows, and macOS once threads exist) fall back to ``spawn``,
    where shard functions must be picklable.
    """
    available = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in available else "spawn"


def resolve_backend(jobs: int = 1) -> Executor:
    """The backend for a batch CLI's ``--jobs`` flag.

    ``--jobs 1`` runs in-process (:class:`SerialBackend`); any larger
    count runs graph nodes across that many worker processes
    (:class:`ProcessPoolBackend`).

    Raises:
        ConfigurationError: ``jobs < 1``.
    """
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return SerialBackend()
    return ProcessPoolBackend(jobs)


class ProcessPoolBackend(Executor):
    """Runs shards across a multiprocessing pool.

    Args:
        jobs: number of worker processes (>= 1).
        start_method: multiprocessing start method; default picks
            :func:`default_start_method` (``fork`` where available,
            else ``spawn``).  Only ``fork`` supports non-picklable
            shard functions; under ``spawn``/``forkserver`` the shard
            function crosses a pickle boundary, so a pre-flight pickle
            check runs before any worker starts and an unpicklable
            shard function degrades to in-process serial execution
            with a once-per-process :class:`RuntimeWarning` naming the
            pickle failure reason.
    """

    def __init__(self, jobs: int, start_method: str | None = None) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if start_method is None:
            start_method = default_start_method()
        if start_method not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"start method {start_method!r} unavailable on this platform "
                f"(have {multiprocessing.get_all_start_methods()})"
            )
        self.jobs = jobs
        self.start_method = start_method

    def run_shards(
        self, shard_fn: ShardFn, shards: Sequence[Shard]
    ) -> Iterator[ShardResult]:
        shards = list(shards)
        if not shards:
            return
        n_workers = min(self.jobs, len(shards))
        if n_workers == 1:
            # One worker cannot beat in-process execution; skip the pool.
            yield from SerialBackend().run_shards(shard_fn, shards)
            return
        if self.start_method != "fork":
            try:
                pickle.dumps(shard_fn)
            except Exception as exc:
                global _SPAWN_FALLBACK_WARNED
                if not _SPAWN_FALLBACK_WARNED:
                    _SPAWN_FALLBACK_WARNED = True
                    warnings.warn(
                        f"shard function is not picklable under the "
                        f"{self.start_method!r} start method "
                        f"({type(exc).__name__}: {exc}); falling back to "
                        f"in-process serial execution — use the fork start "
                        f"method or a picklable (module-level) shard "
                        f"function for parallel speedup",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                yield from SerialBackend().run_shards(shard_fn, shards)
                return
        ctx = multiprocessing.get_context(self.start_method)
        with ctx.Pool(
            processes=n_workers, initializer=_init_worker, initargs=(shard_fn,)
        ) as pool:
            yield from pool.imap_unordered(_run_worker_shard, shards)
