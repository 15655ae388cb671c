"""Tests for DagScheduler: execution, surveys, failure transport."""

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.dag import DagScheduler, TaskGraph, TaskNode
from repro.exceptions import ConfigurationError, DagError
from repro.runtime import ProcessPoolBackend, Telemetry
from repro.runtime.telemetry import DagCompleted, DagStarted, NodeCompleted


def add_value_node(graph, name, deps=(), value=1.0, kind="score"):
    """value + sum of dependency outputs, as a one-element array."""

    def run(ctx):
        total = float(value) + sum(
            float(ctx.array(dep, "x")[0]) for dep in ctx.node.inputs
        )
        return {"x": np.array([total])}

    return graph.add(
        TaskNode(
            name=name, kind=kind, run=run, inputs=tuple(deps),
            key_parts=("value-node", name, value),
        )
    )


def diamond(graph):
    add_value_node(graph, "a", value=1.0, kind="dataset")
    add_value_node(graph, "b", deps=("a",), value=10.0)
    add_value_node(graph, "c", deps=("a",), value=100.0)
    add_value_node(graph, "d", deps=("b", "c"), value=0.0, kind="aggregate")


def collect_events(telemetry):
    events = []
    telemetry.subscribe(events.append)
    return events


class TestExecution:
    def test_diamond_computes_through_dependencies(self):
        graph = TaskGraph("g")
        diamond(graph)
        outputs = DagScheduler().run(graph)
        assert float(outputs["d"].arrays["x"][0]) == (1 + 10) + (1 + 100)

    def test_targets_run_only_the_ancestor_closure(self):
        graph = TaskGraph("g")
        diamond(graph)
        telemetry = Telemetry()
        events = collect_events(telemetry)
        DagScheduler(telemetry=telemetry).run(graph, targets=("b",))
        ran = {e.name for e in events if isinstance(e, NodeCompleted)}
        assert ran == {"a", "b"}

    def test_unknown_target_is_loud(self):
        graph = TaskGraph("g")
        diamond(graph)
        with pytest.raises(ConfigurationError, match="no node named"):
            DagScheduler().run(graph, targets=("ghost",))

    def test_process_backend_matches_serial(self):
        serial_graph, pooled_graph = TaskGraph("g"), TaskGraph("g")
        diamond(serial_graph)
        diamond(pooled_graph)
        serial = DagScheduler().run(serial_graph)
        pooled = DagScheduler(backend=ProcessPoolBackend(2)).run(pooled_graph)
        assert np.array_equal(serial["d"].arrays["x"], pooled["d"].arrays["x"])

    def test_seeded_node_rng_is_deterministic(self):
        def build():
            graph = TaskGraph("g")
            graph.add(
                TaskNode(
                    name="noise", kind="dataset",
                    run=lambda ctx: {"x": ctx.rng.normal(size=4)},
                    seed=np.random.SeedSequence(7), key_parts=("noise",),
                )
            )
            return DagScheduler().run(graph)["noise"].arrays["x"]

        assert np.array_equal(build(), build())

    def test_node_kind_stamped_into_meta(self):
        graph = TaskGraph("g")
        diamond(graph)
        outputs = DagScheduler().run(graph, targets=("a",))
        assert outputs["a"].meta["node_kind"] == "dataset"


class TestFailureTransport:
    def test_failure_aborts_after_wave_and_names_node(self):
        graph = TaskGraph("g")
        add_value_node(graph, "a", kind="dataset")

        def boom(ctx):
            raise ValueError("torpedoed")

        graph.add(
            TaskNode(name="bad", kind="score", run=boom, inputs=("a",),
                     key_parts=("bad",))
        )
        add_value_node(graph, "good", deps=("a",), value=5.0)
        cache = ArtifactCache()
        scheduler = DagScheduler(cache=cache)
        with pytest.raises(DagError, match="bad.*ValueError: torpedoed") as exc:
            scheduler.run(graph)
        assert "torpedoed" in str(exc.value)
        # The sibling in the same wave still published before the abort,
        # so a fixed rerun only has the broken subtree left.
        assert scheduler.survey(graph).done >= {"a", "good"}

    def test_bad_return_type_is_a_dag_error(self):
        graph = TaskGraph("g")
        graph.add(
            TaskNode(name="scalar", kind="score", run=lambda ctx: 3.5,
                     key_parts=("scalar",))
        )
        with pytest.raises(DagError, match="must return"):
            DagScheduler().run(graph)


class TestSurvey:
    def test_fresh_store_is_cold(self):
        graph = TaskGraph("g")
        diamond(graph)
        survey = DagScheduler().survey(graph)
        assert survey.n_done == 0
        assert survey.temperature == 0.0
        assert [len(w) for w in survey.waves()] == [1, 2, 1]

    def test_completed_store_is_warm(self):
        graph = TaskGraph("g")
        diamond(graph)
        scheduler = DagScheduler()
        scheduler.run(graph)
        survey = scheduler.survey(graph)
        assert survey.done == {"a", "b", "c", "d"}
        assert survey.temperature == 1.0
        assert survey.waves() == []
        assert survey.by_kind() == {
            "dataset": (1, 0), "score": (2, 0), "aggregate": (1, 0)
        }

    def test_recover_replays_without_running(self):
        graph = TaskGraph("g")
        diamond(graph)
        cache = ArtifactCache()
        DagScheduler(cache=cache).run(graph)
        telemetry = Telemetry()
        events = collect_events(telemetry)
        DagScheduler(cache=cache, telemetry=telemetry).run(graph)
        completed = [e for e in events if isinstance(e, NodeCompleted)]
        assert len(completed) == 4
        assert all(e.from_store for e in completed)
        done = [e for e in events if isinstance(e, DagCompleted)]
        assert done[0].n_run == 0 and done[0].n_restored == 4

    def test_recover_false_forces_recompute(self):
        graph = TaskGraph("g")
        diamond(graph)
        cache = ArtifactCache()
        DagScheduler(cache=cache).run(graph)
        telemetry = Telemetry()
        events = collect_events(telemetry)
        DagScheduler(cache=cache, telemetry=telemetry).run(graph, recover=False)
        completed = [e for e in events if isinstance(e, NodeCompleted)]
        assert all(not e.from_store for e in completed)

    def test_started_event_reports_restored_count(self):
        graph = TaskGraph("g")
        diamond(graph)
        cache = ArtifactCache()
        DagScheduler(cache=cache).run(graph, targets=("b",))
        telemetry = Telemetry()
        events = collect_events(telemetry)
        DagScheduler(cache=cache, telemetry=telemetry).run(graph)
        started = [e for e in events if isinstance(e, DagStarted)][0]
        assert started.n_nodes == 4 and started.n_restored == 2
