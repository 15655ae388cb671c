"""Benches for the supporting infrastructure: downlink ARQ, a seeded
fault-injection trial loop, diagnostics and spectra, failure-handling
cluster runs."""

import numpy as np
import pytest

from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core.diagnostics import sensitivity_profile
from repro.data.ngst import generate_walk
from repro.experiments.common import seeded_trials
from repro.faults.injector import FaultInjector
from repro.faults.transit import GilbertElliottConfig
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.relative_error import psi
from repro.metrics.spectrum import residual_attribution
from repro.ngst.cluster import ClusterConfig, CRRejectionPipeline
from repro.ngst.downlink import ARQDownlink, DownlinkConfig
from repro.ngst.ramp import RampModel
from repro.ngst.rice import rice_encode


@pytest.fixture(scope="module")
def corrupted_world():
    rng = np.random.default_rng(77)
    pristine = generate_walk(
        NGSTDatasetConfig(n_variants=64, sigma=25.0), rng, (32, 32)
    )
    corrupted, _ = FaultInjector(UncorrelatedFaultModel(0.01), seed=1).inject(
        pristine
    )
    return pristine, corrupted


def test_bench_downlink_arq(benchmark, rng):
    frame = (27000 + np.cumsum(rng.normal(0, 10, 65536))).astype(np.uint16)
    blob = rice_encode(frame)
    config = DownlinkConfig(
        payload_bytes=1024,
        max_retransmits=50,
        channel=GilbertElliottConfig(
            p_good_to_bad=1e-5, p_bad_to_good=0.02, flip_prob_bad=0.3
        ),
    )
    report = benchmark(lambda: ARQDownlink(config, seed=5).transmit(blob))
    assert report.delivered == blob


def test_bench_campaign_statistics(benchmark):
    model = UncorrelatedFaultModel(0.01)

    def trial(rng):
        pristine = generate_walk(NGSTDatasetConfig(n_variants=32), rng, (8, 8))
        injector = FaultInjector(model, seed=int(rng.integers(2**31)))
        corrupted, _ = injector.inject(pristine)
        return psi(corrupted, pristine)

    values = benchmark.pedantic(
        lambda: seeded_trials(trial, 10, seed=3), rounds=2, iterations=1
    )
    assert len(values) == 10


def test_bench_sensitivity_profile(benchmark, corrupted_world):
    _, corrupted = corrupted_world
    profile = benchmark.pedantic(
        lambda: sensitivity_profile(corrupted, lambdas=(10.0, 50.0, 90.0)),
        rounds=2,
        iterations=1,
    )
    assert len(profile) == 3


def test_bench_residual_attribution(benchmark, corrupted_world):
    pristine, corrupted = corrupted_world
    from repro.core.algo_ngst import AlgoNGST

    processed = AlgoNGST(NGSTConfig(sensitivity=80))(corrupted).corrected
    spectra = benchmark(residual_attribution, pristine, corrupted, processed)
    assert spectra["injected"].total_flips > 0


def test_bench_cluster_with_failures(benchmark, rng):
    model = RampModel(n_readouts=16)
    stack = model.generate(rng.uniform(1, 10, size=(64, 64)), rng)
    cfg = ClusterConfig(
        n_slaves=4,
        tile=32,
        slave_failure_probability=0.2,
        retry_timeout_s=0.05,
        failure_seed=1,
    )
    report = benchmark.pedantic(
        lambda: CRRejectionPipeline(model, cfg).run(stack),
        rounds=3,
        iterations=1,
    )
    assert report.n_fragments == 4
