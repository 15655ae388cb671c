"""Tests for the execution backends."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.backend import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    default_start_method,
)
from repro.runtime.plan import TrialPlan


def _shard_fn(shard):
    return [float(np.random.default_rng(seed).normal()) for seed in shard.seeds]


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
        plan = TrialPlan(6, seed=1, shard_size=2)
        indices = [r.index for r in SerialBackend().run_shards(_shard_fn, plan.shards)]
        assert indices == [0, 1, 2]

    def test_values_match_direct_loop(self):
        plan = TrialPlan(5, seed=7, shard_size=2)
        values = _collect(SerialBackend(), _shard_fn, plan.shards)
        reference = [
            float(np.random.default_rng(s).normal())
            for s in np.random.SeedSequence(7).spawn(5)
        ]
        assert values == reference

    def test_elapsed_recorded(self):
        plan = TrialPlan(2, seed=0, shard_size=2)
        (result,) = SerialBackend().run_shards(_shard_fn, plan.shards)
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
        plan = TrialPlan(11, seed=42, shard_size=3)
        serial = _collect(SerialBackend(), _shard_fn, plan.shards)
        parallel = _collect(ProcessPoolBackend(4), _shard_fn, plan.shards)
        assert parallel == serial

    def test_closures_cross_the_fork_boundary(self):
        """Trial functions built from lambdas (unpicklable) must work:
        the pool inherits them via fork instead of pickling."""
        offset = 10.0
        shard_fn = lambda shard: [  # noqa: E731 - the point of the test
            offset + float(np.random.default_rng(seed).normal())
            for seed in shard.seeds
        ]
        plan = TrialPlan(4, seed=5, shard_size=1)
        values = _collect(ProcessPoolBackend(2), shard_fn, plan.shards)
        assert values == _collect(SerialBackend(), shard_fn, plan.shards)
        assert all(v > 5.0 for v in values)

    def test_single_worker_falls_back_to_serial(self):
        """jobs=1 must not pay pool start-up cost (no child processes)."""
        plan = TrialPlan(3, seed=1, shard_size=1)
        pids = set()
        shard_fn = lambda shard: [float(os.getpid())]  # noqa: E731
        for result in ProcessPoolBackend(1).run_shards(shard_fn, plan.shards):
            pids.update(result.values)
        assert pids == {float(os.getpid())}

    def test_worker_exception_propagates(self):
        def boom(shard):
            raise ValueError("worker failure")

        plan = TrialPlan(4, seed=1, shard_size=1)
        with pytest.raises(ValueError, match="worker failure"):
            list(ProcessPoolBackend(2).run_shards(boom, plan.shards))

    def test_describe(self):
        assert "ProcessPoolBackend" in ProcessPoolBackend(3).describe()
        assert "jobs=3" in ProcessPoolBackend(3).describe()


class TestStartMethods:
    def test_default_start_method_is_available(self):
        assert default_start_method() in multiprocessing.get_all_start_methods()

    @needs_fork
    def test_fork_backend_explicit(self):
        plan = TrialPlan(5, seed=3, shard_size=2)
        backend = ProcessPoolBackend(2, start_method="fork")
        assert _collect(backend, _shard_fn, plan.shards) == _collect(
            SerialBackend(), _shard_fn, plan.shards
        )

    @needs_spawn
    def test_spawn_matches_serial_bitwise(self):
        """Module-level shard functions cross the spawn pickle boundary
        and still produce bit-identical values."""
        plan = TrialPlan(5, seed=3, shard_size=2)
        backend = ProcessPoolBackend(2, start_method="spawn")
        assert _collect(backend, _shard_fn, plan.shards) == _collect(
            SerialBackend(), _shard_fn, plan.shards
        )

    @needs_spawn
    def test_spawn_unpicklable_falls_back_to_serial_with_warning(self, monkeypatch):
        """An unpicklable closure must not deadlock a half-started pool:
        the pre-flight pickle check degrades to in-process serial
        execution and says why, once."""
        from repro.runtime import backend as backend_mod

        monkeypatch.setattr(backend_mod, "_SPAWN_FALLBACK_WARNED", False)
        offset = 1.0
        shard_fn = lambda shard: [offset] * shard.n_trials  # noqa: E731
        plan = TrialPlan(4, seed=1, shard_size=1)
        backend = ProcessPoolBackend(2, start_method="spawn")
        with pytest.warns(RuntimeWarning, match="not picklable"):
            values = _collect(backend, shard_fn, plan.shards)
        assert values == [1.0] * 4

    @needs_spawn
    def test_spawn_fallback_warns_only_once(self, monkeypatch):
        """The degradation reason is logged on the first fallback only;
        later calls stay quiet instead of spamming every shard run."""
        import warnings

        from repro.runtime import backend as backend_mod

        monkeypatch.setattr(backend_mod, "_SPAWN_FALLBACK_WARNED", False)
        offset = 3.0
        shard_fn = lambda shard: [offset] * shard.n_trials  # noqa: E731
        plan = TrialPlan(2, seed=1, shard_size=1)
        backend = ProcessPoolBackend(2, start_method="spawn")
        with pytest.warns(RuntimeWarning, match="falling back"):
            _collect(backend, shard_fn, plan.shards)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _collect(backend, shard_fn, plan.shards) == [3.0, 3.0]

    @needs_spawn
    def test_spawn_single_worker_still_serial(self):
        """The jobs=1 fallback sidesteps pickling entirely."""
        offset = 2.5
        shard_fn = lambda shard: [offset] * shard.n_trials  # noqa: E731
        plan = TrialPlan(2, seed=1, shard_size=2)
        backend = ProcessPoolBackend(1, start_method="spawn")
        assert _collect(backend, shard_fn, plan.shards) == [2.5, 2.5]


class TestThreadPoolBackend:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            ThreadPoolBackend(0)

    def test_matches_serial_bitwise(self):
        plan = TrialPlan(11, seed=42, shard_size=3)
        serial = _collect(SerialBackend(), _shard_fn, plan.shards)
        backend = ThreadPoolBackend(4)
        try:
            threaded = _collect(backend, _shard_fn, plan.shards)
        finally:
            backend.shutdown()
        assert threaded == serial

    def test_submit_runs_ad_hoc_jobs_on_named_threads(self):
        import threading

        backend = ThreadPoolBackend(2)
        try:
            future = backend.submit(
                lambda a, b: (a + b, threading.current_thread().name), 2, 3
            )
            value, thread_name = future.result(timeout=10)
        finally:
            backend.shutdown()
        assert value == 5
        assert thread_name.startswith("repro-worker")

    def test_shutdown_is_idempotent_and_pool_recreates(self):
        backend = ThreadPoolBackend(2)
        assert backend.submit(lambda: 1).result(timeout=10) == 1
        backend.shutdown()
        backend.shutdown()  # second call is a no-op
        # A later use lazily builds a fresh pool.
        assert backend.submit(lambda: 2).result(timeout=10) == 2
        backend.shutdown()

    def test_closures_need_no_pickling(self):
        captured = []
        backend = ThreadPoolBackend(2)
        try:
            backend.submit(lambda: captured.append("ran")).result(timeout=10)
        finally:
            backend.shutdown()
        assert captured == ["ran"]
