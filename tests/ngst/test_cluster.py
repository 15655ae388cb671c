"""Tests for the master/worker CR-rejection pipeline."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.ngst.cluster as cluster_module
from repro.config import NGSTConfig
from repro.core.preprocessor import NGSTPreprocessor
from repro.exceptions import ConfigurationError, DataFormatError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.ngst.cluster import ClusterConfig, CRRejectionPipeline, ScheduleReport
from repro.ngst.cosmic_rays import CosmicRayModel
from repro.ngst.ramp import RampModel
from repro.ngst.rice import rice_decode


@pytest.fixture
def small_run(rng):
    model = RampModel(n_readouts=8, read_noise=5.0)
    flux = rng.uniform(2.0, 20.0, size=(64, 64))
    stack = model.generate(flux, rng)
    return model, flux, stack


class TestClusterConfig:
    def test_defaults(self):
        cfg = ClusterConfig()
        assert cfg.n_slaves == 15
        assert cfg.tile == 128

    def test_rejects_no_slaves(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_slaves=0)

    def test_work_factor_none_is_unity(self):
        assert ClusterConfig().work_factor(None) == 1.0

    def test_work_factor_grows_with_sensitivity(self):
        cfg = ClusterConfig()
        assert cfg.work_factor(100) > cfg.work_factor(10) > 1.0


class TestPipeline:
    def test_produces_image(self, small_run):
        model, flux, stack = small_run
        pipeline = CRRejectionPipeline(model, ClusterConfig(n_slaves=4, tile=32))
        report = pipeline.run(stack)
        assert report.image.shape == (64, 64)
        assert report.n_fragments == 4
        assert np.abs(report.image - flux).mean() < 1.0

    def test_compressed_payload_decodes(self, small_run):
        model, flux, stack = small_run
        pipeline = CRRejectionPipeline(model, ClusterConfig(n_slaves=4, tile=32))
        report = pipeline.run(stack)
        decoded = rice_decode(report.compressed).astype(np.float64) / 100.0
        assert np.abs(decoded - report.image).max() <= 0.005 + 1e-9

    def test_preprocessing_increases_makespan(self, small_run):
        model, _, stack = small_run
        cluster = ClusterConfig(n_slaves=4, tile=32)
        plain = CRRejectionPipeline(model, cluster).run(stack)
        pre = CRRejectionPipeline(
            model, cluster, NGSTPreprocessor(NGSTConfig(sensitivity=80))
        ).run(stack)
        assert pre.makespan_s > plain.makespan_s
        assert pre.preprocessed and not plain.preprocessed

    def test_more_slaves_faster(self, small_run):
        model, _, stack = small_run
        few = CRRejectionPipeline(model, ClusterConfig(n_slaves=1, tile=16)).run(stack)
        many = CRRejectionPipeline(model, ClusterConfig(n_slaves=8, tile=16)).run(stack)
        assert many.makespan_s < few.makespan_s

    def test_rejects_2d_input(self, small_run):
        model, _, _ = small_run
        pipeline = CRRejectionPipeline(model)
        with pytest.raises(SimulationError):
            pipeline.run(np.zeros((64, 64), dtype=np.uint16))

    def test_cr_rejection_inside_pipeline(self, small_run, rng):
        model, flux, stack = small_run
        hit_stack, _ = CosmicRayModel(hit_probability=0.2).inject(stack, rng)
        pipeline = CRRejectionPipeline(model, ClusterConfig(n_slaves=4, tile=32))
        report = pipeline.run(hit_stack)
        naive = model.fit_slope(hit_stack)
        assert (
            np.abs(report.image - flux).mean() < np.abs(naive - flux).mean() / 5
        )

    def test_utilisation_within_unit(self, small_run):
        model, _, stack = small_run
        report = CRRejectionPipeline(model, ClusterConfig(n_slaves=4, tile=32)).run(stack)
        assert 0.0 <= report.slave_utilisation <= 1.0

    def test_bytes_moved_accounts_both_directions(self, small_run):
        model, _, stack = small_run
        report = CRRejectionPipeline(model, ClusterConfig(n_slaves=4, tile=32)).run(stack)
        # At least the full input stack plus the returned flux tiles.
        assert report.bytes_moved > stack.nbytes


class TestFailureHandling:
    def test_failures_recovered_by_retries(self, small_run):
        model, flux, stack = small_run
        cfg = ClusterConfig(
            n_slaves=4,
            tile=32,
            slave_failure_probability=0.3,
            retry_timeout_s=0.05,
            failure_seed=1,
        )
        report = CRRejectionPipeline(model, cfg).run(stack)
        assert report.n_fragments == 4
        assert report.n_slave_failures > 0
        assert report.n_retries >= report.n_slave_failures
        assert np.abs(report.image - flux).mean() < 1.0

    def test_failures_slow_the_pipeline(self, small_run):
        model, _, stack = small_run
        healthy = CRRejectionPipeline(
            model, ClusterConfig(n_slaves=4, tile=32)
        ).run(stack)
        flaky = CRRejectionPipeline(
            model,
            ClusterConfig(
                n_slaves=4,
                tile=32,
                slave_failure_probability=0.4,
                retry_timeout_s=0.05,
                failure_seed=1,
            ),
        ).run(stack)
        assert flaky.makespan_s > healthy.makespan_s

    def test_zero_failure_probability_no_retries(self, small_run):
        model, _, stack = small_run
        report = CRRejectionPipeline(
            model, ClusterConfig(n_slaves=4, tile=32)
        ).run(stack)
        assert report.n_slave_failures == 0
        assert report.n_retries == 0

    def test_rejects_bad_failure_probability(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(slave_failure_probability=1.0)

    def test_rejects_bad_rejection_name(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(rejection="vote")


class TestSegmentedRejection:
    def test_segmented_strategy_produces_image(self, small_run):
        model, flux, stack = small_run
        cfg = ClusterConfig(n_slaves=4, tile=32, rejection="segmented")
        report = CRRejectionPipeline(model, cfg).run(stack)
        assert np.abs(report.image - flux).mean() < 1.0


class TestScheduling:
    def test_rejects_bad_scheduling(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(scheduling="lottery")

    def test_rejects_negative_spread(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(node_speed_spread=-0.1)

    def test_dynamic_equals_static_on_uniform_nodes(self, small_run):
        model, _, stack = small_run
        static = CRRejectionPipeline(
            model, ClusterConfig(n_slaves=4, tile=32, scheduling="static")
        ).run(stack)
        dynamic = CRRejectionPipeline(
            model, ClusterConfig(n_slaves=4, tile=32, scheduling="dynamic")
        ).run(stack)
        assert dynamic.makespan_s == pytest.approx(static.makespan_s, rel=0.05)

    def test_dynamic_beats_static_on_heterogeneous_nodes(self, rng):
        model = RampModel(n_readouts=8)
        stack = model.generate(rng.uniform(2, 20, size=(128, 128)), rng)
        static = CRRejectionPipeline(
            model,
            ClusterConfig(
                n_slaves=5, tile=32, scheduling="static", node_speed_spread=0.6
            ),
        ).run(stack)
        dynamic = CRRejectionPipeline(
            model,
            ClusterConfig(
                n_slaves=5, tile=32, scheduling="dynamic", node_speed_spread=0.6
            ),
        ).run(stack)
        assert dynamic.makespan_s < static.makespan_s

    def test_heterogeneous_speeds_deterministic(self, small_run):
        model, _, stack = small_run
        cfg = ClusterConfig(
            n_slaves=4, tile=32, node_speed_spread=0.4, failure_seed=7
        )
        a = CRRejectionPipeline(model, cfg).run(stack)
        b = CRRejectionPipeline(model, cfg).run(stack)
        assert a.makespan_s == b.makespan_s

    def test_dynamic_with_failures_still_completes(self, small_run):
        model, flux, stack = small_run
        cfg = ClusterConfig(
            n_slaves=4,
            tile=32,
            scheduling="dynamic",
            node_speed_spread=0.4,
            slave_failure_probability=0.3,
            retry_timeout_s=0.05,
            max_retries=10,
            failure_seed=2,
        )
        report = CRRejectionPipeline(model, cfg).run(stack)
        assert report.n_fragments == 4
        assert np.abs(report.image - flux).mean() < 1.0


def _faulty_world():
    """A 16-readout 64×64 stack with CR hits and bit flips, so both the
    preprocessor and the choice of rejection change the image."""
    rng = np.random.default_rng(2003)
    model = RampModel(n_readouts=16, read_noise=5.0)
    flux = rng.uniform(2.0, 20.0, size=(64, 64))
    hit, _ = CosmicRayModel(hit_probability=0.1).inject(model.generate(flux, rng), rng)
    corrupted, _ = FaultInjector(UncorrelatedFaultModel(0.01), seed=5).inject(hit)
    return model, corrupted


def _pipeline(model, cluster, sensitivity):
    preprocessor = (
        None
        if sensitivity is None
        else NGSTPreprocessor(NGSTConfig(sensitivity=sensitivity))
    )
    return CRRejectionPipeline(model, cluster, preprocessor)


#: The timing fields of a report, in the order the pinned digest hashes them.
TIMING_FIELDS = (
    "makespan_s",
    "bytes_moved",
    "slave_utilisation",
    "n_fragments",
    "preprocessed",
    "n_slave_failures",
    "n_retries",
)

#: ``(ClusterConfig kwargs, preprocessor Λ or None)``: static and dynamic
#: scheduling, node speed spread, failures with retries, both rejections.
PINNED_CONFIGS = (
    (dict(n_slaves=4, tile=32), None),
    (dict(n_slaves=4, tile=32), 80.0),
    (
        dict(n_slaves=3, tile=16, scheduling="dynamic", node_speed_spread=0.5,
             failure_seed=3),
        None,
    ),
    (
        dict(n_slaves=5, tile=16, node_speed_spread=0.4, failure_seed=9),
        90.0,
    ),
    (
        dict(n_slaves=4, tile=32, slave_failure_probability=0.3,
             retry_timeout_s=0.05, failure_seed=1),
        None,
    ),
    (
        dict(n_slaves=4, tile=16, scheduling="dynamic", node_speed_spread=0.4,
             slave_failure_probability=0.3, retry_timeout_s=0.05,
             max_retries=10, failure_seed=2),
        80.0,
    ),
    (
        dict(n_slaves=4, tile=16, rejection="segmented", node_speed_spread=0.8,
             slave_failure_probability=0.2, retry_timeout_s=3e-4,
             max_retries=20, failure_seed=1),
        None,
    ),
    (
        dict(n_slaves=6, tile=16, rejection="segmented", scheduling="dynamic",
             node_speed_spread=0.3),
        90.0,
    ),
)

#: SHA-256 over every pinned config's image bytes, Rice payload and
#: ``repr`` of the timing fields, computed when each slave reduced its
#: own fragment inside the simulation.
PINNED_RUN_SHA256 = "b0c3c29d56fe2096b108d87a2831e430ad2fb06ef6749585ce7f837497fa101d"


def _run_digest():
    model, stack = _faulty_world()
    digest = hashlib.sha256()
    for kwargs, sensitivity in PINNED_CONFIGS:
        report = _pipeline(model, ClusterConfig(**kwargs), sensitivity).run(stack)
        digest.update(report.image.tobytes())
        digest.update(report.compressed)
        digest.update(repr(tuple(getattr(report, f) for f in TIMING_FIELDS)).encode())
    return digest.hexdigest()


class TestScheduleOracle:
    """``run`` is ``schedule`` plus a data reduction: same timings, and
    the outputs of the pipeline that reduced inside the simulation."""

    def test_timing_fields_are_the_schedule_report(self):
        names = tuple(f.name for f in dataclasses.fields(ScheduleReport))
        assert names == TIMING_FIELDS

    def test_run_outputs_match_pinned_digest(self):
        assert _run_digest() == PINNED_RUN_SHA256

    @seed(2003)
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        n_slaves=st.integers(1, 5),
        scheduling=st.sampled_from(["static", "dynamic"]),
        node_speed_spread=st.sampled_from([0.0, 0.4, 0.8]),
        failures=st.sampled_from([(0.0, 3), (0.2, 2), (0.3, 8)]),
        rejection=st.sampled_from(["clip", "segmented"]),
        sensitivity=st.sampled_from([None, 80.0]),
        failure_seed=st.integers(0, 50),
    )
    def test_run_timing_equals_schedule(
        self, n_slaves, scheduling, node_speed_spread, failures, rejection,
        sensitivity, failure_seed,
    ):
        model, stack = _faulty_world()
        probability, max_retries = failures
        cluster = ClusterConfig(
            n_slaves=n_slaves,
            tile=16,
            scheduling=scheduling,
            node_speed_spread=node_speed_spread,
            slave_failure_probability=probability,
            retry_timeout_s=0.01,
            max_retries=max_retries,
            rejection=rejection,
            failure_seed=failure_seed,
        )
        pipeline = _pipeline(model, cluster, sensitivity)
        try:
            timing = pipeline.schedule(stack)
        except SimulationError:
            with pytest.raises(SimulationError, match="lost fragments"):
                pipeline.run(stack)
            return
        report = pipeline.run(stack)
        assert {f: getattr(report, f) for f in TIMING_FIELDS} == dataclasses.asdict(
            timing
        )

    def test_each_fragment_rejected_once_under_retries(
        self, small_run, monkeypatch
    ):
        # Slow nodes and a short timeout: duplicates of a fragment finish
        # processing before the first copy's result is back.
        model, _, stack = small_run
        calls = []
        real_reject = cluster_module.reject_cosmic_rays

        def counting_reject(data, ramp_model):
            calls.append(data.shape)
            return real_reject(data, ramp_model)

        monkeypatch.setattr(cluster_module, "reject_cosmic_rays", counting_reject)
        cfg = ClusterConfig(
            n_slaves=4,
            tile=16,
            node_speed_spread=0.8,
            slave_failure_probability=0.2,
            retry_timeout_s=3e-4,
            max_retries=20,
            failure_seed=1,
        )
        report = CRRejectionPipeline(model, cfg).run(stack)
        assert report.n_retries > report.n_slave_failures > 0
        assert len(calls) == report.n_fragments == 16

    @pytest.mark.parametrize("method", ["schedule", "run"])
    @pytest.mark.parametrize(
        "shape, tile, error",
        [
            ((64, 64), 32, SimulationError),
            ((8, 64, 64), 24, DataFormatError),
            ((8, 64, 64), 0, ConfigurationError),
        ],
        ids=["2d-stack", "indivisible-tile", "zero-tile"],
    )
    def test_refusals_match_run(self, method, shape, tile, error):
        pipeline = CRRejectionPipeline(
            RampModel(n_readouts=8), ClusterConfig(n_slaves=2, tile=tile)
        )
        with pytest.raises(error):
            getattr(pipeline, method)(np.zeros(shape, dtype=np.uint16))
