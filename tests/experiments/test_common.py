"""Tests for the experiment harness utilities."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.common import (
    ExperimentResult,
    Series,
    arm_means,
    best_sensitivity,
    seeded_trials,
)
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Series("x", [1, 2], [1])


class TestExperimentResult:
    def make(self):
        result = ExperimentResult("t1", "title", "x", "y")
        result.add("a", [1.0, 2.0], [0.1, 0.2])
        result.add("b", [1.0, 2.0], [0.3, 0.4])
        result.note("a note")
        return result

    def test_table_contains_everything(self):
        table = self.make().to_table()
        assert "t1" in table
        assert "a" in table and "b" in table
        assert "a note" in table

    def test_to_dict_roundtrippable(self):
        d = self.make().to_dict()
        assert d["experiment_id"] == "t1"
        assert len(d["series"]) == 2
        assert d["series"][0]["y"] == [0.1, 0.2]

    def test_series_by_label(self):
        result = self.make()
        assert result.series_by_label("b").y == [0.3, 0.4]
        with pytest.raises(KeyError):
            result.series_by_label("zz")

    def test_empty_table(self):
        assert "(no data)" in ExperimentResult("e", "t", "x", "y").to_table()

    def test_scientific_formatting(self):
        result = ExperimentResult("e", "t", "x", "y")
        result.add("a", [1e-6], [1e9])
        table = result.to_table()
        assert "e-06" in table or "e-6" in table


def _spawn_loop(trial, n_trials, seed):
    """The reference: one Generator per ``SeedSequence(seed).spawn`` child."""
    return [
        trial(np.random.default_rng(child))
        for child in np.random.SeedSequence(seed).spawn(n_trials)
    ]


class TestSeededTrials:
    def test_scalar_trials_match_spawn_loop(self):
        def trial(rng):
            return rng.normal()

        values = seeded_trials(trial, 7, seed=2003)
        expected = [float(v) for v in _spawn_loop(trial, 7, 2003)]
        assert values == expected
        assert all(type(v) is float for v in values)

    def test_list_trials_match_spawn_loop(self):
        def trial(rng):
            return np.array([rng.random(), rng.integers(10)])

        values = seeded_trials(trial, 4, seed=11)
        expected = [[float(x) for x in v] for v in _spawn_loop(trial, 4, 11)]
        assert values == expected
        assert all(type(x) is float for v in values for x in v)

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError, match="n_trials"):
            seeded_trials(lambda rng: 0.0, 0, seed=1)


class TestAveraged:
    """A one-arm :func:`arm_means` trial: the plain per-trial average."""

    @staticmethod
    def averaged(trial, n_trials, seed):
        return arm_means(lambda rng: [trial(rng)], n_trials, seed)[0]

    def test_deterministic(self):
        a = self.averaged(lambda rng: rng.random(), 4, seed=9)
        b = self.averaged(lambda rng: rng.random(), 4, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = self.averaged(lambda rng: rng.random(), 4, seed=9)
        b = self.averaged(lambda rng: rng.random(), 4, seed=10)
        assert a != b


class TestArmMeans:
    @staticmethod
    def trial(rng):
        # Arms read one shared draw, as an experiment's arms do.
        x = rng.normal(size=3)
        return [float(x.sum()), float(x.max()), float(rng.random() < 2)]

    def test_each_arm_equals_its_own_averaged_loop(self):
        means = arm_means(self.trial, 5, seed=2003)
        for i, mean in enumerate(means):
            # The one-arm loop this replaces: a fresh draw per arm.
            alone = seeded_trials(lambda rng: self.trial(rng)[i], 5, 2003)
            assert mean == float(np.mean(alone))
        assert means[2] == 1.0
        assert all(type(m) is float for m in means)

    def test_deterministic(self):
        assert arm_means(self.trial, 4, seed=9) == arm_means(self.trial, 4, seed=9)
        assert arm_means(self.trial, 4, seed=9) != arm_means(self.trial, 4, seed=10)

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError, match="n_trials"):
            arm_means(self.trial, 0, seed=1)


class TestBestSensitivity:
    def test_finds_minimiser(self, walk_stack):
        corrupted, _ = FaultInjector(
            UncorrelatedFaultModel(0.01), seed=4
        ).inject(walk_stack)
        lam, value = best_sensitivity(corrupted, walk_stack, (10, 50, 90))
        assert lam in (10, 50, 90)
        assert value >= 0

    def test_rejects_empty_grid(self, walk_stack):
        with pytest.raises(ConfigurationError):
            best_sensitivity(walk_stack, walk_stack, ())
