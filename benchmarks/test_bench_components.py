"""Micro-benchmarks of the individual components.

Not tied to a single figure; these quantify the throughput of each
stage of the data path (useful when sizing the onboard system).
"""

import numpy as np
import pytest

from repro.baselines.majority import majority_vote_temporal
from repro.baselines.median import median_smooth_temporal
from repro.config import (
    CorrelatedFaultConfig,
    NGSTDatasetConfig,
    OTISConfig,
)
from repro.core.algo_otis import AlgoOTIS
from repro.data.ngst import generate_walk
from repro.data.otis import blob
from repro.faults.correlated import CorrelatedFaultModel
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.ngst.cluster import ClusterConfig, CRRejectionPipeline
from repro.ngst.cosmic_rays import reject_cosmic_rays
from repro.ngst.ramp import RampModel
from repro.ngst.rice import rice_decode, rice_encode
from repro.otis.quantize import encode_dn


@pytest.fixture(scope="module")
def walk_64x64():
    rng = np.random.default_rng(7)
    return generate_walk(NGSTDatasetConfig(n_variants=64, sigma=25.0), rng, (64, 64))


def test_bench_median_baseline(benchmark, walk_64x64):
    benchmark(median_smooth_temporal, walk_64x64)


def test_bench_majority_baseline(benchmark, walk_64x64):
    benchmark(majority_vote_temporal, walk_64x64)


def test_bench_algo_otis_dn(benchmark):
    dn = encode_dn(blob(64, 64))
    corrupted, _ = UncorrelatedFaultModel(0.02).corrupt(
        dn, np.random.default_rng(1)
    )
    algo = AlgoOTIS(OTISConfig())
    benchmark(algo, corrupted)


def test_bench_uncorrelated_injection(benchmark, walk_64x64, rng):
    model = UncorrelatedFaultModel(0.01)
    benchmark(model.corrupt, walk_64x64, rng)


def test_bench_correlated_injection(benchmark, rng):
    data = np.zeros((16, 16, 16), dtype=np.uint16)
    model = CorrelatedFaultModel(CorrelatedFaultConfig(gamma_ini=0.05))
    benchmark(model.corrupt, data, rng)


def test_bench_rice_encode(benchmark, walk_64x64):
    frame = walk_64x64[0]
    benchmark(rice_encode, frame)


def test_bench_rice_decode(benchmark, walk_64x64):
    blob_bytes = rice_encode(walk_64x64[0])
    benchmark(rice_decode, blob_bytes)


def test_bench_cr_rejection(benchmark, rng):
    model = RampModel(n_readouts=32)
    stack = model.generate(rng.uniform(1, 10, size=(64, 64)), rng)
    benchmark(reject_cosmic_rays, stack, model)


def test_bench_cluster_pipeline(benchmark, rng):
    model = RampModel(n_readouts=16)
    stack = model.generate(rng.uniform(1, 10, size=(64, 64)), rng)
    pipeline = CRRejectionPipeline(model, ClusterConfig(n_slaves=4, tile=32))
    benchmark.pedantic(pipeline.run, args=(stack,), rounds=3, iterations=1)


def test_bench_cluster_schedule(benchmark, rng):
    model = RampModel(n_readouts=16)
    stack = model.generate(rng.uniform(1, 10, size=(64, 64)), rng)
    pipeline = CRRejectionPipeline(model, ClusterConfig(n_slaves=4, tile=32))
    benchmark(pipeline.schedule, stack)
