"""Tests for the arm-sweep specs and the content keys derived from them."""

import numpy as np
import pytest

from repro.config import NGSTDatasetConfig
from repro.dag import pristine_key, realization_key
from repro.exceptions import ConfigurationError
from repro.experiments.common import walk_dataset
from repro.faults.correlated import CorrelatedFaultModel
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.runtime import FaultSpec


class TestFaultSpec:
    def test_of_derives_key_parts_from_model(self):
        spec = FaultSpec.of(CorrelatedFaultModel(0.05))
        assert spec.key_parts

    def test_of_rejects_models_without_key_parts(self):
        class Opaque:
            def corrupt(self, data, rng):
                return data

        with pytest.raises(ConfigurationError, match="cache_key_parts"):
            FaultSpec.of(Opaque())


class TestContentKeys:
    def test_keys_separate_seeds_and_fault_params(self):
        dataset = walk_dataset(NGSTDatasetConfig(n_variants=8), (4, 4))
        fault = FaultSpec.of(UncorrelatedFaultModel(0.05))
        other = FaultSpec.of(UncorrelatedFaultModel(0.1))
        a, b = np.random.SeedSequence(0), np.random.SeedSequence(1)
        assert pristine_key(dataset, a) != pristine_key(dataset, b)
        assert realization_key(dataset, fault, a) != realization_key(
            dataset, other, a
        )
        assert realization_key(dataset, fault, a) != realization_key(
            dataset, fault, b
        )
        # The two artifact kinds of one trial never share an address.
        assert pristine_key(dataset, a) != realization_key(dataset, fault, a)

    def test_dataset_config_changes_both_keys(self):
        small = walk_dataset(NGSTDatasetConfig(n_variants=8), (4, 4))
        large = walk_dataset(NGSTDatasetConfig(n_variants=16), (4, 4))
        fault = FaultSpec.of(UncorrelatedFaultModel(0.05))
        seed = np.random.SeedSequence(0)
        assert pristine_key(small, seed) != pristine_key(large, seed)
        assert realization_key(small, fault, seed) != realization_key(
            large, fault, seed
        )
