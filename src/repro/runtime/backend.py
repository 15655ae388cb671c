"""Execution backends: where the DAG scheduler's shards actually run.

Every backend implements the one-method :class:`Executor` interface:
take a shard function and a list of ``int`` shard indices, and yield
one :class:`ShardResult` per shard as each completes, possibly out of
order.  The scheduler (:mod:`repro.dag.scheduler`) dispatches each
ready graph node as one shard.

:class:`ProcessPoolBackend` runs shards on a fork-context
:class:`concurrent.futures.ProcessPoolExecutor`.  Workers inherit the
shard function through fork instead of pickling it, so the closures
graph nodes run (dataset generators, preprocessing arms) work in
parallel unchanged.  A worker that dies mid-shard (``os._exit``,
SIGKILL, the OOM killer) breaks the pool, and the backend raises a
:class:`~repro.exceptions.DagError` at once instead of waiting for a
result that will never come.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ConfigurationError, DagError

#: A shard function: runs the shard with the given index, returns its value.
ShardFn = Callable[[int], Any]


@dataclass(frozen=True)
class ShardResult:
    """One completed shard.

    Attributes:
        index: the shard's index in its batch.
        value: the shard function's return value.
        elapsed_s: wall-clock seconds spent running the shard (measured
            inside the worker, so it excludes queueing).
    """

    index: int
    value: Any
    elapsed_s: float


class Executor(ABC):
    """Interface every execution backend implements.

    Attributes:
        jobs: worker count (1 for serial backends).
    """

    jobs: int = 1

    @abstractmethod
    def run_shards(
        self, shard_fn: ShardFn, shards: Sequence[int]
    ) -> Iterator[ShardResult]:
        """Run *shard_fn* over the indices *shards*, yielding results as
        they finish, in any order; callers reassemble by ``index``."""

    def describe(self) -> str:
        """Human-readable backend identity for telemetry."""
        return f"{type(self).__name__}(jobs={self.jobs})"


def _timed_shard(shard_fn: ShardFn, index: int) -> ShardResult:
    start = time.perf_counter()
    value = shard_fn(index)
    return ShardResult(index, value, time.perf_counter() - start)


class SerialBackend(Executor):
    """Runs every shard in the calling process, in batch order."""

    jobs = 1

    def run_shards(
        self, shard_fn: ShardFn, shards: Sequence[int]
    ) -> Iterator[ShardResult]:
        for index in shards:
            yield _timed_shard(shard_fn, index)


#: Worker-process slot for the inherited shard function; set by
#: :func:`_init_worker` in each pool worker.
_WORKER_SHARD_FN: ShardFn | None = None


def _init_worker(shard_fn: ShardFn) -> None:
    global _WORKER_SHARD_FN
    _WORKER_SHARD_FN = shard_fn


def _run_worker_shard(index: int) -> ShardResult:
    assert _WORKER_SHARD_FN is not None, "pool worker not initialised"
    return _timed_shard(_WORKER_SHARD_FN, index)


def resolve_backend(jobs: int = 1) -> Executor:
    """The backend for a batch CLI's ``--jobs`` flag.

    ``--jobs 1`` runs in-process (:class:`SerialBackend`); any larger
    count runs graph nodes across that many forked worker processes
    (:class:`ProcessPoolBackend`), or warns and runs in-process where
    the platform cannot fork.

    Raises:
        ConfigurationError: ``jobs < 1``.
    """
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return SerialBackend()
    if "fork" not in multiprocessing.get_all_start_methods():
        warnings.warn(
            f"--jobs {jobs}: this platform cannot fork worker processes; "
            f"running in-process",
            RuntimeWarning,
            stacklevel=2,
        )
        return SerialBackend()
    return ProcessPoolBackend(jobs)


class ProcessPoolBackend(Executor):
    """Runs shards across a fork-context process pool.

    A wave that one worker would run stays in-process.  A worker lost
    mid-shard raises :class:`~repro.exceptions.DagError`; an abandoned
    wave starts no more shards.

    Args:
        jobs: number of worker processes (>= 1).
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run_shards(
        self, shard_fn: ShardFn, shards: Sequence[int]
    ) -> Iterator[ShardResult]:
        shards = list(shards)
        n_workers = min(self.jobs, len(shards))
        if n_workers <= 1:
            # One worker cannot beat in-process execution; skip the pool.
            yield from SerialBackend().run_shards(shard_fn, shards)
            return
        # Imported here so that ``import repro`` stays free of them.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(shard_fn,),
        )
        try:
            futures = [pool.submit(_run_worker_shard, index) for index in shards]
            for future in as_completed(futures):
                try:
                    result = future.result()
                except BrokenProcessPool:
                    raise DagError(
                        "a worker process died before its shard finished"
                    ) from None
                yield result
        finally:
            pool.shutdown(cancel_futures=True)
