"""Tests for the telemetry hub and stock progress printer."""

import io

from repro.runtime.telemetry import (
    DagCompleted,
    DagStarted,
    NodeCompleted,
    ProgressPrinter,
    Telemetry,
)


def _started():
    return DagStarted(dag="report", n_nodes=3, n_restored=0, backend="serial")


def _node():
    return NodeCompleted(
        dag="report",
        name="fig5/experiment",
        kind="experiment",
        index=1,
        n_nodes=3,
        elapsed_s=0.5,
        from_store=False,
    )


def _completed():
    return DagCompleted(
        dag="report", n_nodes=3, n_run=2, n_restored=1, elapsed_s=2.0
    )


class TestTelemetry:
    def test_subscribers_receive_events_in_order(self):
        hub = Telemetry()
        seen_a, seen_b = [], []
        hub.subscribe(seen_a.append)
        hub.subscribe(seen_b.append)
        events = [_started(), _node(), _completed()]
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
        for event in (_started(), _node(), _completed()):
            printer(event)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("[report]") for line in lines)

    def test_format_dag_started(self):
        line = ProgressPrinter.format(_started())
        assert line == "[report] start: 3 node(s) on serial"

    def test_format_node_completed(self):
        line = ProgressPrinter.format(_node())
        assert line == "[report] node 1/3 fig5/experiment (experiment) in 0.500s"

    def test_format_dag_completed(self):
        line = ProgressPrinter.format(_completed())
        assert line == "[report] done: 3 node(s) in 2.000s (2 run, 1 restored)"
