"""Tests for the execution backends."""

import multiprocessing
import os
import warnings

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.backend import (
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)

SEED = 42


def _draw(index):
    return float(np.random.default_rng([SEED, index]).normal())


def _collect(backend, shard_fn, shards):
    results = {r.index: r for r in backend.run_shards(shard_fn, shards)}
    return [results[i].value for i in sorted(results)]


class TestSerialBackend:
    def test_runs_in_order(self):
        indices = [r.index for r in SerialBackend().run_shards(_draw, range(3))]
        assert indices == [0, 1, 2]

    def test_values_match_direct_loop(self):
        values = _collect(SerialBackend(), _draw, range(5))
        assert values == [_draw(index) for index in range(5)]

    def test_elapsed_recorded(self):
        (result,) = SerialBackend().run_shards(_draw, range(1))
        assert result.elapsed_s >= 0.0

    def test_empty_shard_list(self):
        assert list(SerialBackend().run_shards(_draw, [])) == []


class TestProcessPoolBackend:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(0)

    def test_matches_serial_bitwise(self):
        serial = _collect(SerialBackend(), _draw, range(11))
        parallel = _collect(ProcessPoolBackend(4), _draw, range(11))
        assert parallel == serial

    def test_closures_cross_the_fork_boundary(self):
        """Trial functions built from lambdas (unpicklable) must work:
        the pool inherits them via fork instead of pickling."""
        offset = 10.0
        shard_fn = lambda index: offset + _draw(index)  # noqa: E731
        values = _collect(ProcessPoolBackend(2), shard_fn, range(4))
        assert values == _collect(SerialBackend(), shard_fn, range(4))
        assert all(v > 5.0 for v in values)

    def test_single_worker_falls_back_to_serial(self):
        """jobs=1 must not pay pool start-up cost (no child processes)."""
        pids = set()
        shard_fn = lambda index: os.getpid()  # noqa: E731
        for result in ProcessPoolBackend(1).run_shards(shard_fn, range(3)):
            pids.add(result.value)
        assert pids == {os.getpid()}

    def test_worker_exception_propagates(self):
        def boom(index):
            raise ValueError("worker failure")

        with pytest.raises(ValueError, match="worker failure"):
            list(ProcessPoolBackend(2).run_shards(boom, range(4)))

    def test_describe(self):
        assert "ProcessPoolBackend" in ProcessPoolBackend(3).describe()
        assert "jobs=3" in ProcessPoolBackend(3).describe()


class TestResolveBackend:
    def test_one_job_is_serial(self):
        assert isinstance(resolve_backend(1), SerialBackend)
        assert isinstance(resolve_backend(), SerialBackend)

    def test_more_jobs_are_processes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # fork is available here
            backend = resolve_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 3

    def test_no_fork_platform_warns_and_runs_serially(self, monkeypatch):
        """Graph nodes run closures that only fork can hand to workers,
        so a platform without fork runs ``--jobs N`` in-process."""
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.warns(RuntimeWarning, match="cannot fork") as record:
            backend = resolve_backend(2)
        assert isinstance(backend, SerialBackend)
        assert len(record) == 1

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_rejects_nonpositive_jobs(self, jobs):
        with pytest.raises(ConfigurationError, match="--jobs must be >= 1"):
            resolve_backend(jobs)
