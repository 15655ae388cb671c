"""Execution backends: where a plan's shards actually run.

Both backends implement the one-method :class:`Executor` interface —
take a shard function and a list of shards, yield a
:class:`ShardResult` per shard as each completes (possibly out of
order) — so everything above them (checkpointing, telemetry, result
assembly) is backend-agnostic.

:class:`ProcessPoolBackend` prefers a fork-context ``multiprocessing``
pool and passes the shard function to workers through the pool
initializer, which fork inherits rather than pickles.  Campaign trial
functions are typically closures over lambdas (dataset generators,
preprocessing arms) that could never cross a pickle boundary; fork
inheritance lets exactly the same campaign objects run serially or in
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
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.runtime.plan import Shard

#: A shard function: runs every trial in a shard, returns their values
#: in trial order.
ShardFn = Callable[[Shard], list]


@dataclass(frozen=True)
class ShardResult:
    """One completed shard.

    Attributes:
        index: the shard's position in its plan.
        values: per-trial results in trial order.
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
    """Runs every shard in the calling process, in plan order."""

    jobs = 1

    def run_shards(
        self, shard_fn: ShardFn, shards: Sequence[Shard]
    ) -> Iterator[ShardResult]:
        for shard in shards:
            yield _timed_shard(shard_fn, shard)


class ThreadPoolBackend(Executor):
    """Runs shards (or ad-hoc jobs) across a persistent thread pool.

    Threads share the calling process, so shard functions need no
    pickling and shared state (caches, pipelines) needs no IPC; the
    GIL is the ceiling, but the hot kernels are NumPy calls that
    release it, so CPU-bound shards still overlap usefully.  This is
    the backend the serve layer multiplexes its per-tenant stream
    sessions onto: :meth:`submit` exposes the pool for one-off jobs
    (an asyncio loop bridges them with ``asyncio.wrap_future``), while
    :meth:`run_shards` keeps the backend drop-in compatible with the
    trial runtime.

    The pool is created lazily on first use and persists across calls
    (a long-running service must not pay thread startup per chunk);
    call :meth:`shutdown` when done.

    Args:
        jobs: number of worker threads (>= 1).
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: ThreadPoolExecutor | None = None

    @property
    def pool(self) -> ThreadPoolExecutor:
        """The lazily created executor backing this backend."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-worker"
            )
        return self._pool

    def submit(self, fn: Callable, /, *args, **kwargs) -> "Future":
        """Run ``fn(*args, **kwargs)`` on the pool; returns its future."""
        return self.pool.submit(fn, *args, **kwargs)

    def run_shards(
        self, shard_fn: ShardFn, shards: Sequence[Shard]
    ) -> Iterator[ShardResult]:
        futures = [
            self.pool.submit(_timed_shard, shard_fn, shard) for shard in shards
        ]
        for future in as_completed(futures):
            yield future.result()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool (idempotent); a later use recreates it."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None


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


#: Backend names accepted by every repro CLI's ``--backend`` flag.
BACKEND_CHOICES = ("serial", "thread", "process", "cluster")


def resolve_backend(
    name: str | None = None,
    jobs: int = 1,
    threads: int = 0,
    workers: str | None = None,
) -> Executor:
    """Build an :class:`Executor` from the uniform CLI flags.

    Every repro CLI exposes the same surface — ``--backend
    {serial,thread,process,cluster}`` plus the sizing flags ``--jobs``
    (processes), ``--threads`` (threads), and ``--workers host:port,…``
    (cluster) — and resolves it here, so flag semantics cannot drift
    between entry points.

    Args:
        name: explicit backend choice; None infers one from the sizing
            flags for backward compatibility (``--threads N`` → thread,
            ``--jobs N>1`` → process, otherwise serial).
        jobs: worker-process count for the process backend.
        threads: worker-thread count for the thread backend.
        workers: cluster worker addresses (``host:port,host:port``);
            required by — and only meaningful for — the cluster
            backend.

    Raises:
        ConfigurationError: unknown name, missing/invalid sizing for
            the chosen backend, or ``--workers`` without ``cluster``.
    """
    if name is None:
        if workers:
            name = "cluster"
        elif threads:
            name = "thread"
        elif jobs > 1:
            name = "process"
        else:
            name = "serial"
    if name != "cluster" and workers:
        raise ConfigurationError(
            f"--workers only applies to the cluster backend, not {name!r}"
        )
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadPoolBackend(threads or max(jobs, 1))
    if name == "process":
        return ProcessPoolBackend(max(jobs, 1))
    if name == "cluster":
        if not workers:
            raise ConfigurationError(
                "the cluster backend needs --workers host:port[,host:port…] "
                "(start them with 'repro worker')"
            )
        from repro.cluster import ClusterBackend  # deferred: repro.cluster
        # imports this module, so a top-level import would be circular.

        return ClusterBackend(workers)
    raise ConfigurationError(
        f"unknown backend {name!r}; choose one of {', '.join(BACKEND_CHOICES)}"
    )


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
                        f"method or a picklable (module-level) trial "
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
