"""End-to-end bit-identity of shared-artifact arm sweeps run as task graphs.

The contract every Λ sweep rests on: for every backend (serial, fork
process pool) and every store state (no disk store, cold store, warm
store, disk-backed store), each arm's per-trial score values from
:func:`repro.dag.add_arm_sweep` are **byte-identical** to running that
arm as its own seeded trial loop with the canonical trial protocol.  The content keys of the shared dataset and
fault artifacts are pinned too, so existing stores stay warm.
"""

import multiprocessing

import numpy as np
import pytest

from repro.baselines.median import median_smooth_temporal
from repro.cache import ArtifactCache
from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.dag import (
    DagScheduler,
    TaskGraph,
    add_arm_sweep,
    aggregate_values,
    pristine_key,
    realization_key,
)
from repro.experiments.common import walk_dataset
from repro.faults.correlated import CorrelatedFaultModel
from repro.faults.injector import FaultInjector, derive_injector_seed
from repro.metrics.relative_error import psi
from repro.runtime import Arm, FaultSpec, ProcessPoolBackend, Telemetry
from repro.runtime.telemetry import NodeCompleted

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

N_TRIALS = 6
SEED = 2003
SHAPE = (6, 8, 8)  # (frames, rows, cols) of uint16 NGST walk variants


def _fixture():
    """A small figure-4-style grid point with three preprocessing arms."""
    dataset = walk_dataset(NGSTDatasetConfig(n_variants=SHAPE[0]), SHAPE[1:])
    model = CorrelatedFaultModel(0.05)
    algo = AlgoNGST(NGSTConfig(sensitivity=80.0))
    arms = [
        Arm("none", lambda corrupted, pristine: psi(corrupted, pristine)),
        Arm(
            "algo_ngst",
            lambda corrupted, pristine, algo=algo: psi(
                algo(corrupted).corrected, pristine
            ),
        ),
        Arm(
            "median_w3",
            lambda corrupted, pristine: psi(
                median_smooth_temporal(corrupted), pristine
            ),
        ),
    ]
    return dataset, model, arms


def _per_arm_reference(dataset, model, arms):
    """Each arm as its own serial spawn loop, canonical trial protocol."""
    results = {}
    for arm in arms:
        values = []
        for child in np.random.SeedSequence(SEED).spawn(N_TRIALS):
            rng = np.random.default_rng(child)
            pristine = dataset.build(rng)
            corrupted = pristine
            if model is not None:
                injector = FaultInjector(model, seed=derive_injector_seed(rng))
                corrupted, _ = injector.inject(pristine)
            values.append(float(arm.evaluate(corrupted, pristine)))
        results[arm.name] = values
    return results


def _sweep(arms, dataset, model, cache=None, backend=None):
    """Run one arm sweep; (arm → per-trial values, node events)."""
    graph = TaskGraph("equivalence")
    fault = FaultSpec.of(model) if model is not None else None
    aggregate = add_arm_sweep(graph, "fig4", arms, dataset, fault, N_TRIALS, SEED)
    telemetry = Telemetry()
    events = []
    telemetry.subscribe(
        lambda e: events.append(e) if isinstance(e, NodeCompleted) else None
    )
    scheduler = DagScheduler(cache=cache, backend=backend, telemetry=telemetry)
    outputs = scheduler.run(graph)
    return aggregate_values(outputs[aggregate]), events


def _restored(events, kind):
    return sum(1 for e in events if e.kind == kind and e.from_store)


def _assert_identical(swept, reference):
    assert set(swept) == set(reference)
    for name, values in reference.items():
        expected = np.asarray(values, dtype=np.float64)
        assert swept[name].dtype == np.float64
        assert swept[name].tobytes() == expected.tobytes(), f"arm {name} diverged"


def _backend(kind):
    if kind == "serial":
        return None
    return ProcessPoolBackend(2, start_method="fork")


@pytest.fixture(scope="module")
def reference():
    dataset, model, arms = _fixture()
    return _per_arm_reference(dataset, model, arms)


BACKENDS = [
    "serial",
    pytest.param("process", marks=needs_fork),
]


@pytest.mark.parametrize("backend_kind", BACKENDS)
class TestStoreStates:
    def test_no_disk_store(self, reference, backend_kind):
        dataset, model, arms = _fixture()
        backend = _backend(backend_kind)
        swept, events = _sweep(arms, dataset, model, backend=backend)
        _assert_identical(swept, reference)
        assert not any(e.from_store for e in events)

    def test_cold_store(self, reference, backend_kind, tmp_path):
        dataset, model, arms = _fixture()
        cache = ArtifactCache(directory=tmp_path)
        backend = _backend(backend_kind)
        swept, events = _sweep(arms, dataset, model, cache, backend)
        _assert_identical(swept, reference)
        assert not any(e.from_store for e in events)
        assert cache.stats().n_disk_entries == len(events)

    def test_warm_store(self, reference, backend_kind):
        """Arms score dataset/fault artifacts a different sweep stored."""
        dataset, model, arms = _fixture()
        cache = ArtifactCache()
        _sweep(arms[:1], dataset, model, cache)
        backend = _backend(backend_kind)
        swept, events = _sweep(arms, dataset, model, cache, backend)
        _assert_identical(swept, reference)
        assert _restored(events, "dataset") == N_TRIALS
        assert _restored(events, "fault") == N_TRIALS

    def test_disk_backed_store(self, reference, backend_kind, tmp_path):
        """A fresh cache instance (empty memory tier) serving from disk."""
        dataset, model, arms = _fixture()
        _sweep(arms[:1], dataset, model, ArtifactCache(directory=tmp_path))
        backend = _backend(backend_kind)
        swept, events = _sweep(
            arms, dataset, model, ArtifactCache(directory=tmp_path), backend
        )
        _assert_identical(swept, reference)
        assert _restored(events, "dataset") == N_TRIALS
        assert _restored(events, "fault") == N_TRIALS


class TestStorePaths:
    def test_warm_replay_restores_every_node(self, reference):
        dataset, model, arms = _fixture()
        cache = ArtifactCache()
        _sweep(arms, dataset, model, cache)
        swept, events = _sweep(arms, dataset, model, cache)
        _assert_identical(swept, reference)
        assert events and all(e.from_store for e in events)

    def test_pristine_hit_realization_miss(self, reference):
        """Warm dataset, cold realization: the fault node must restore
        the captured post-generation RNG state before drawing."""
        dataset, model, arms = _fixture()
        cache = ArtifactCache()
        _sweep(arms, dataset, model, cache)
        fault = FaultSpec.of(model)
        for trial_seed in np.random.SeedSequence(SEED).spawn(N_TRIALS):
            cache._memory.pop(realization_key(dataset, fault, trial_seed))
        swept, events = _sweep(arms, dataset, model, cache)
        _assert_identical(swept, reference)
        assert _restored(events, "dataset") == N_TRIALS
        assert _restored(events, "fault") == 0

    def test_faultless_arms_score_pristine(self):
        dataset, _, arms = _fixture()
        same = Arm(
            "same_array", lambda corrupted, pristine: float(corrupted is pristine)
        )
        swept, events = _sweep(arms + [same], dataset, None)
        _assert_identical(
            {name: swept[name] for name in swept if name != same.name},
            _per_arm_reference(dataset, None, arms),
        )
        assert swept[same.name].tolist() == [1.0] * N_TRIALS
        assert not any(e.kind == "fault" for e in events)


class TestPinnedContentKeys:
    """Keys recorded before the artifact path moved into ``repro.dag``.

    A change here re-addresses every dataset and fault artifact, so
    every existing store would go cold.
    """

    def test_keys_match_recorded_hex(self):
        dataset = walk_dataset(NGSTDatasetConfig(n_variants=6), (8, 8))
        fault = FaultSpec.of(CorrelatedFaultModel(0.05))
        seed = np.random.SeedSequence(2003)
        assert pristine_key(dataset, seed) == (
            "2b9257d6d903be4de71fa8a4276a37ca3bd7c5153e15262b34c9e25144822f46"
        )
        assert realization_key(dataset, fault, seed) == (
            "33734a7ab3e93c40fe7e96b718743d19fc40f1b68f8db724cbcabce8aee3e0b8"
        )
