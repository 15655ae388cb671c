"""Benches for the trial runtime: backend dispatch and sharding overhead.

The container may expose a single CPU, so these benches measure and
record throughput without asserting a parallel speedup; what they do
assert is the runtime's determinism contract (parallel == serial) on
top of the timings.
"""

import numpy as np
import pytest

from repro.config import NGSTDatasetConfig
from repro.data.ngst import generate_walk
from repro.faults.campaign import Campaign
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.relative_error import psi
from repro.runtime import ProcessPoolBackend, SerialBackend, TrialRuntime

N_TRIALS = 24


def _trial(rng):
    data = rng.normal(size=(64, 64))
    return float(np.linalg.norm(np.fft.rfft2(data)))


@pytest.fixture(scope="module")
def reference_values():
    return TrialRuntime(shard_size=4).run(_trial, N_TRIALS, seed=11)


def test_bench_runtime_serial(benchmark, reference_values):
    runtime = TrialRuntime(SerialBackend(), shard_size=4)
    values = benchmark.pedantic(
        lambda: runtime.run(_trial, N_TRIALS, seed=11), rounds=3, iterations=1
    )
    assert values == reference_values


def test_bench_runtime_process_pool(benchmark, reference_values):
    values = benchmark.pedantic(
        lambda: TrialRuntime(ProcessPoolBackend(2), shard_size=4).run(
            _trial, N_TRIALS, seed=11
        ),
        rounds=3,
        iterations=1,
    )
    assert values == reference_values


def test_bench_sharding_overhead(benchmark, reference_values):
    """Per-trial shards are the worst case for dispatch bookkeeping."""
    runtime = TrialRuntime(SerialBackend(), shard_size=1)
    values = benchmark.pedantic(
        lambda: runtime.run(_trial, N_TRIALS, seed=11), rounds=3, iterations=1
    )
    assert values == reference_values


def test_bench_parallel_campaign(benchmark):
    campaign = Campaign(
        generate=lambda rng: generate_walk(
            NGSTDatasetConfig(n_variants=32), rng, (8, 8)
        ),
        fault_model=UncorrelatedFaultModel(0.01),
        metric=psi,
    )
    runtime = TrialRuntime(ProcessPoolBackend(2), shard_size=2)
    summary = benchmark.pedantic(
        lambda: campaign.run(n_trials=8, seed=3, runtime=runtime),
        rounds=2,
        iterations=1,
    )
    assert summary.n_trials == 8
    assert summary.values == campaign.run(n_trials=8, seed=3).values
