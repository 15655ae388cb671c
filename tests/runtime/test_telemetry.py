"""Tests for the telemetry hub and stock progress printer."""

import io

from repro.runtime.telemetry import (
    ProgressPrinter,
    RunCompleted,
    RunStarted,
    ShardCompleted,
    Telemetry,
)


def _started():
    return RunStarted(key="run-0000", n_trials=10, n_shards=4, backend="serial")


def _shard():
    return ShardCompleted(
        key="run-0000",
        shard_index=2,
        n_trials=3,
        elapsed_s=0.5,
        trials_per_sec=6.0,
    )


def _completed():
    return RunCompleted(
        key="run-0000",
        n_trials=10,
        elapsed_s=2.0,
        trials_per_sec=5.0,
    )


class TestTelemetry:
    def test_subscribers_receive_events_in_order(self):
        hub = Telemetry()
        seen_a, seen_b = [], []
        hub.subscribe(seen_a.append)
        hub.subscribe(seen_b.append)
        events = [_started(), _shard(), _completed()]
        for event in events:
            hub.emit(event)
        assert seen_a == events
        assert seen_b == events

    def test_unsubscribe_stops_delivery(self):
        hub = Telemetry()
        seen = []
        unsubscribe = hub.subscribe(seen.append)
        hub.emit(_started())
        unsubscribe()
        hub.emit(_completed())
        assert seen == [_started()]
        unsubscribe()  # second call is a no-op

    def test_emit_without_subscribers(self):
        Telemetry().emit(_started())  # must not raise


class TestProgressPrinter:
    def test_writes_one_line_per_event(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream)
        for event in (_started(), _shard(), _completed()):
            printer(event)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("[run-0000]") for line in lines)

    def test_format_run_started(self):
        line = ProgressPrinter.format(_started())
        assert line == "[run-0000] start: 10 trial(s) in 4 shard(s) on serial"

    def test_format_shard_completed(self):
        line = ProgressPrinter.format(_shard())
        assert "shard 2" in line
        assert "3 trial(s)" in line
        assert "6.0 trials/s" in line

    def test_format_run_completed(self):
        line = ProgressPrinter.format(_completed())
        assert line == "[run-0000] done: 10 trial(s) in 2.000s (5.0 trials/s)"
