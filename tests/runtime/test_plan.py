"""Tests for the trial sharder."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.plan import TrialPlan, default_shard_size


class TestDefaultShardSize:
    def test_small_campaigns_get_single_trial_shards(self):
        for n in (1, 2, 8, 16):
            assert default_shard_size(n) == 1

    def test_large_campaigns_get_chunks(self):
        assert default_shard_size(100) == 7
        assert default_shard_size(1600) == 100

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            default_shard_size(0)


class TestTrialPlan:
    def test_shards_partition_the_trials(self):
        plan = TrialPlan(10, seed=3, shard_size=3)
        assert plan.n_shards == 4
        assert [s.n_trials for s in plan.shards] == [3, 3, 3, 1]
        assert [(s.start, s.stop) for s in plan.shards] == [
            (0, 3),
            (3, 6),
            (6, 9),
            (9, 10),
        ]
        assert [s.index for s in plan.shards] == [0, 1, 2, 3]

    def test_seeds_match_serial_spawn(self):
        """Plan seeds are exactly SeedSequence(seed).spawn(n) in order."""
        plan = TrialPlan(7, seed=11, shard_size=2)
        flat = [seed for shard in plan.shards for seed in shard.seeds]
        reference = np.random.SeedSequence(11).spawn(7)
        for planned, ref in zip(flat, reference):
            assert planned.entropy == ref.entropy
            assert planned.spawn_key == ref.spawn_key

    def test_seeds_independent_of_shard_size(self):
        """Sharding is pure bookkeeping: trial streams never change."""

        def draws(shard_size):
            plan = TrialPlan(9, seed=4, shard_size=shard_size)
            return [
                float(np.random.default_rng(seed).normal())
                for shard in plan.shards
                for seed in shard.seeds
            ]

        assert draws(1) == draws(3) == draws(9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            TrialPlan(0)
        with pytest.raises(ConfigurationError):
            TrialPlan(5, shard_size=0)

    def test_single_trial(self):
        plan = TrialPlan(1, seed=0)
        assert plan.n_shards == 1
        assert plan.shards[0].n_trials == 1
