"""Tests for TrialRuntime: equivalence, telemetry."""

import numpy as np

from repro.runtime import (
    ProcessPoolBackend,
    RunCompleted,
    RunStarted,
    SerialBackend,
    ShardCompleted,
    Telemetry,
    TrialRuntime,
)


def _trial(rng):
    return float(rng.normal())


def _multi_stat_trial(rng):
    draws = rng.normal(size=3)
    return [float(draws.min()), float(draws.max())]


class TestSerialEquivalence:
    def test_matches_plain_spawn_loop(self):
        values = TrialRuntime().run(_trial, 9, seed=13)
        reference = [
            float(np.random.default_rng(s).normal())
            for s in np.random.SeedSequence(13).spawn(9)
        ]
        assert values == reference

    def test_parallel_matches_serial_bitwise(self):
        serial = TrialRuntime(SerialBackend(), shard_size=2).run(_trial, 13, seed=7)
        parallel = TrialRuntime(ProcessPoolBackend(4), shard_size=2).run(
            _trial, 13, seed=7
        )
        assert parallel == serial

    def test_shard_size_does_not_change_values(self):
        runs = [
            TrialRuntime(shard_size=size).run(_trial, 10, seed=5)
            for size in (1, 3, 10, None)
        ]
        assert all(run == runs[0] for run in runs)

    def test_multi_stat_trials(self):
        values = TrialRuntime(shard_size=2).run(_multi_stat_trial, 5, seed=2)
        assert len(values) == 5
        assert all(isinstance(v, list) and len(v) == 2 for v in values)

    def test_closure_trials_run_in_pool(self):
        scale = 3.0
        trial = lambda rng: scale * float(rng.normal())  # noqa: E731
        serial = TrialRuntime(SerialBackend(), shard_size=1).run(trial, 6, seed=1)
        parallel = TrialRuntime(ProcessPoolBackend(2), shard_size=1).run(
            trial, 6, seed=1
        )
        assert parallel == serial


class TestKeysAndTelemetry:
    def test_auto_keys_are_sequential_per_runtime(self):
        telemetry = Telemetry()
        events = []
        telemetry.subscribe(events.append)
        runtime = TrialRuntime(telemetry=telemetry, shard_size=2)
        runtime.run(_trial, 4, seed=0)
        runtime.run(_trial, 4, seed=0)
        starts = [e.key for e in events if isinstance(e, RunStarted)]
        assert starts == ["run-0000", "run-0001"]
        assert {e.key for e in events} == {"run-0000", "run-0001"}

    def test_event_sequence(self):
        telemetry = Telemetry()
        events = []
        telemetry.subscribe(events.append)
        TrialRuntime(telemetry=telemetry, shard_size=2).run(_trial, 6, seed=1)

        assert isinstance(events[0], RunStarted)
        assert events[0].n_trials == 6
        assert events[0].n_shards == 3

        shard_events = [e for e in events if isinstance(e, ShardCompleted)]
        assert sorted(e.shard_index for e in shard_events) == [0, 1, 2]

        assert isinstance(events[-1], RunCompleted)
        assert events[-1].n_trials == 6
