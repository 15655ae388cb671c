"""Tests for the execution backends."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.backend import (
    ProcessPoolBackend,
    SerialBackend,
    Shard,
    default_start_method,
    resolve_backend,
)

SEED = 42


def _shards(n):
    return [Shard(index) for index in range(n)]


def _draw(index):
    return float(np.random.default_rng([SEED, index]).normal())


def _shard_fn(shard):
    return [_draw(shard.index)]


#: Marks for tests that need a specific start method on this platform.
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
needs_spawn = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable",
)


def _collect(backend, shard_fn, shards):
    results = {r.index: r for r in backend.run_shards(shard_fn, shards)}
    return [v for i in sorted(results) for v in results[i].values]


class TestSerialBackend:
    def test_runs_in_order(self):
        indices = [r.index for r in SerialBackend().run_shards(_shard_fn, _shards(3))]
        assert indices == [0, 1, 2]

    def test_values_match_direct_loop(self):
        values = _collect(SerialBackend(), _shard_fn, _shards(5))
        assert values == [_draw(index) for index in range(5)]

    def test_elapsed_recorded(self):
        (result,) = SerialBackend().run_shards(_shard_fn, _shards(1))
        assert result.elapsed_s >= 0.0

    def test_empty_shard_list(self):
        assert list(SerialBackend().run_shards(_shard_fn, [])) == []


class TestProcessPoolBackend:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(0)

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(2, start_method="no-such-method")

    def test_matches_serial_bitwise(self):
        serial = _collect(SerialBackend(), _shard_fn, _shards(11))
        parallel = _collect(ProcessPoolBackend(4), _shard_fn, _shards(11))
        assert parallel == serial

    def test_closures_cross_the_fork_boundary(self):
        """Trial functions built from lambdas (unpicklable) must work:
        the pool inherits them via fork instead of pickling."""
        offset = 10.0
        shard_fn = lambda shard: [offset + _draw(shard.index)]  # noqa: E731
        values = _collect(ProcessPoolBackend(2), shard_fn, _shards(4))
        assert values == _collect(SerialBackend(), shard_fn, _shards(4))
        assert all(v > 5.0 for v in values)

    def test_single_worker_falls_back_to_serial(self):
        """jobs=1 must not pay pool start-up cost (no child processes)."""
        pids = set()
        shard_fn = lambda shard: [float(os.getpid())]  # noqa: E731
        for result in ProcessPoolBackend(1).run_shards(shard_fn, _shards(3)):
            pids.update(result.values)
        assert pids == {float(os.getpid())}

    def test_worker_exception_propagates(self):
        def boom(shard):
            raise ValueError("worker failure")

        with pytest.raises(ValueError, match="worker failure"):
            list(ProcessPoolBackend(2).run_shards(boom, _shards(4)))

    def test_describe(self):
        assert "ProcessPoolBackend" in ProcessPoolBackend(3).describe()
        assert "jobs=3" in ProcessPoolBackend(3).describe()


class TestStartMethods:
    def test_default_start_method_is_available(self):
        assert default_start_method() in multiprocessing.get_all_start_methods()

    @needs_fork
    def test_fork_backend_explicit(self):
        backend = ProcessPoolBackend(2, start_method="fork")
        assert _collect(backend, _shard_fn, _shards(5)) == _collect(
            SerialBackend(), _shard_fn, _shards(5)
        )

    @needs_spawn
    def test_spawn_matches_serial_bitwise(self):
        """Module-level shard functions cross the spawn pickle boundary
        and still produce bit-identical values."""
        backend = ProcessPoolBackend(2, start_method="spawn")
        assert _collect(backend, _shard_fn, _shards(5)) == _collect(
            SerialBackend(), _shard_fn, _shards(5)
        )

    @needs_spawn
    def test_spawn_unpicklable_falls_back_to_serial_with_warning(self, monkeypatch):
        """An unpicklable closure must not deadlock a half-started pool:
        the pre-flight pickle check degrades to in-process serial
        execution and says why, once."""
        from repro.runtime import backend as backend_mod

        monkeypatch.setattr(backend_mod, "_SPAWN_FALLBACK_WARNED", False)
        offset = 1.0
        shard_fn = lambda shard: [offset]  # noqa: E731
        backend = ProcessPoolBackend(2, start_method="spawn")
        with pytest.warns(RuntimeWarning, match="not picklable"):
            values = _collect(backend, shard_fn, _shards(4))
        assert values == [1.0] * 4

    @needs_spawn
    def test_spawn_fallback_warns_only_once(self, monkeypatch):
        """The degradation reason is logged on the first fallback only;
        later calls stay quiet instead of spamming every shard run."""
        import warnings

        from repro.runtime import backend as backend_mod

        monkeypatch.setattr(backend_mod, "_SPAWN_FALLBACK_WARNED", False)
        offset = 3.0
        shard_fn = lambda shard: [offset]  # noqa: E731
        backend = ProcessPoolBackend(2, start_method="spawn")
        with pytest.warns(RuntimeWarning, match="falling back"):
            _collect(backend, shard_fn, _shards(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _collect(backend, shard_fn, _shards(2)) == [3.0, 3.0]

    @needs_spawn
    def test_spawn_single_worker_still_serial(self):
        """The jobs=1 fallback sidesteps pickling entirely."""
        offset = 2.5
        shard_fn = lambda shard: [offset]  # noqa: E731
        backend = ProcessPoolBackend(1, start_method="spawn")
        assert _collect(backend, shard_fn, _shards(2)) == [2.5, 2.5]


class TestResolveBackend:
    def test_one_job_is_serial(self):
        assert isinstance(resolve_backend(1), SerialBackend)
        assert isinstance(resolve_backend(), SerialBackend)

    def test_more_jobs_are_processes(self):
        backend = resolve_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 3

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_rejects_nonpositive_jobs(self, jobs):
        with pytest.raises(ConfigurationError, match="--jobs must be >= 1"):
            resolve_backend(jobs)
