"""Serve metrics: histogram math, counters, telemetry folding, exposition."""

import pytest

from repro.exceptions import ConfigurationError
from repro.serve import LatencyHistogram, ServeMetrics
from repro.serve.metrics import COUNTER_NAMES
from repro.stream.telemetry import (
    ChunkCompleted,
    LambdaAdjusted,
    StreamCompleted,
    StreamStarted,
)


def _chunk_event(frames_in=16, frames_out=12, elapsed_s=0.002):
    return ChunkCompleted(
        chunk_index=0,
        frames_in=frames_in,
        frames_out=frames_out,
        elapsed_s=elapsed_s,
        frames_per_sec=frames_in / elapsed_s,
    )


class TestLatencyHistogram:
    def test_empty_quantiles_are_zero(self):
        hist = LatencyHistogram()
        assert hist.p50 == 0.0
        assert hist.p99 == 0.0
        assert hist.mean == 0.0

    def test_quantiles_are_upper_bound_estimates(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.record(0.001)
        hist.record(1.0)
        # 0.001 is exactly a bucket bound, so p50 reads it back exactly;
        # the single 1.0 outlier only surfaces at the very top.
        assert hist.p50 == pytest.approx(0.001)
        assert hist.quantile(1.0) == pytest.approx(1.0)
        assert hist.mean == pytest.approx((99 * 0.001 + 1.0) / 100)
        assert hist.count == 100
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(1.0)

    def test_negative_observation_clamps(self):
        hist = LatencyHistogram()
        hist.record(-5.0)
        assert hist.count == 1
        assert hist.sum == 0.0

    def test_bad_quantile_raises(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram().quantile(1.5)

    def test_snapshot_shape(self):
        hist = LatencyHistogram()
        hist.record(0.01)
        snap = hist.snapshot()
        assert set(snap) == {"count", "mean_s", "min_s", "max_s", "p50_s", "p99_s"}
        assert snap["count"] == 1


class TestServeMetrics:
    def test_incr_and_counter(self):
        metrics = ServeMetrics()
        metrics.incr("messages")
        metrics.incr("messages", 4)
        assert metrics.counter("messages") == 5

    def test_unknown_counter_raises(self):
        with pytest.raises(ConfigurationError):
            ServeMetrics().incr("not-a-counter")

    def test_unknown_histogram_raises(self):
        with pytest.raises(ConfigurationError):
            ServeMetrics().observe("not-a-histogram", 0.1)

    def test_chunk_events_fold_into_counters_and_latency(self):
        metrics = ServeMetrics()
        metrics(_chunk_event(frames_in=16, frames_out=12))
        metrics(_chunk_event(frames_in=16, frames_out=16))
        assert metrics.counter("chunks") == 2
        assert metrics.counter("frames_in") == 32
        assert metrics.counter("frames_out") == 28
        assert metrics.snapshot()["latency"]["chunk_latency"]["count"] == 2

    def test_stream_started_counts_opens_and_resumes(self):
        metrics = ServeMetrics()
        started = dict(source="s", stages=(), chunk_frames=16)
        metrics(StreamStarted(resumed_frames=0, **started))
        metrics(StreamStarted(resumed_frames=48, **started))
        assert metrics.counter("sessions_opened") == 2
        assert metrics.counter("sessions_resumed") == 1

    def test_stream_completed_counts(self):
        metrics = ServeMetrics()
        metrics(
            StreamCompleted(
                n_frames_in=64,
                n_frames_out=64,
                n_chunks=4,
                elapsed_s=0.1,
                frames_per_sec=640.0,
                stages=(),
            )
        )
        assert metrics.counter("sessions_completed") == 1

    def test_prometheus_exposition(self):
        metrics = ServeMetrics()
        metrics.incr("messages", 3)
        metrics.observe("ingest_latency", 0.005)
        text = metrics.render_prometheus()
        assert "repro_serve_messages_total 3" in text
        for name in COUNTER_NAMES:
            assert f"repro_serve_{name}_total" in text
        assert 'repro_serve_ingest_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_serve_ingest_latency_seconds_count 1" in text

    def test_snapshot_structure(self):
        snap = ServeMetrics().snapshot()
        assert set(snap) == {"counters", "latency", "lambda_current"}
        assert set(snap["counters"]) == set(COUNTER_NAMES)
        assert snap["lambda_current"] == {}

    def test_lambda_adjusted_updates_counter_and_gauge(self):
        metrics = ServeMetrics()
        metrics(
            LambdaAdjusted(
                label="lab",
                stack_index=3,
                frame_index=96,
                old_sensitivity=50.0,
                new_sensitivity=100.0,
                estimated_sigma=24.0,
                estimated_gamma=0.05,
            )
        )
        assert metrics.counter("lambda_adjustments") == 1
        assert metrics.snapshot()["lambda_current"] == {"lab": 100.0}
        text = metrics.render_prometheus()
        assert 'repro_serve_lambda_current{tenant="lab"} 100' in text
