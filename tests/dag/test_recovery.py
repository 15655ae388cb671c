"""Crash/resume behavior at every node-state boundary.

The scheduler's recovery contract: completion state is *only* what the
artifact store can verify.  These tests materialise each way a run can
be interrupted — killed before the publishing rename (only a temp
file), killed mid-node (no files at all), or a completed artifact
corrupted later — and check that a rerun re-executes exactly the invalidated
subtree, nothing more, with final outputs identical to an
uninterrupted run.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ArtifactCache
from repro.dag import DagScheduler, TaskGraph, TaskNode
from repro.runtime import Telemetry
from repro.runtime.telemetry import NodeCompleted

from tests.dag.test_scheduler import add_value_node, collect_events, diamond


def disk_scheduler(directory, telemetry=None):
    """A scheduler whose only state is the on-disk store — what a fresh
    process sees after the previous one was killed."""
    return DagScheduler(
        cache=ArtifactCache(max_memory_bytes=0, directory=Path(directory)),
        telemetry=telemetry,
    )


def executed(events):
    return {e.name for e in events if isinstance(e, NodeCompleted) and not e.from_store}


def restored(events):
    return {e.name for e in events if isinstance(e, NodeCompleted) and e.from_store}


def run_resumed(directory, build):
    """Re-run *build*'s graph against the store, returning what ran."""
    graph = TaskGraph("g")
    build(graph)
    telemetry = Telemetry()
    events = collect_events(telemetry)
    outputs = disk_scheduler(directory, telemetry).run(graph)
    return outputs, executed(events), restored(events)


class TestKillBoundaries:
    def test_kill_before_replace_leaves_only_a_temp_file(self, tmp_path):
        """Each entry is published by one os.replace of a temp file; a
        kill before it must read as 'node never ran', and ``clear``
        removes the orphaned temp file."""
        graph = TaskGraph("g")
        diamond(graph)
        scheduler = disk_scheduler(tmp_path)
        scheduler.run(graph)
        entry = tmp_path / f"{graph.output_key('b')}.art"
        entry.rename(entry.with_name(f"{entry.name}.tmp-999-deadbeef"))
        outputs, ran, replayed = run_resumed(tmp_path, diamond)
        assert ran == {"b", "d"}
        assert replayed == {"a", "c"}
        assert float(outputs["d"].arrays["x"][0]) == 112.0
        ArtifactCache(directory=tmp_path).clear()
        assert list(tmp_path.iterdir()) == []

    def test_kill_mid_node_leaves_no_trace(self, tmp_path):
        """A node killed before any file lands is simply pending; the
        completed frontier before it survives untouched."""
        first = TaskGraph("g")
        diamond(first)
        # Simulate the kill: only a and b ever completed.
        disk_scheduler(tmp_path).run(first, targets=("b",))
        outputs, ran, replayed = run_resumed(tmp_path, diamond)
        assert replayed == {"a", "b"}
        assert ran == {"c", "d"}
        assert float(outputs["d"].arrays["x"][0]) == 112.0

    def test_corrupt_payload_invalidates_only_its_subtree(self, tmp_path):
        """Flip bytes in one completed artifact: the store's SHA check
        rejects it and exactly that node plus descendants re-run."""
        graph = TaskGraph("g")
        diamond(graph)
        disk_scheduler(tmp_path).run(graph)
        payload = tmp_path / f"{graph.output_key('c')}.art"
        payload.write_bytes(b"\x00" * 32)
        outputs, ran, replayed = run_resumed(tmp_path, diamond)
        assert ran == {"c", "d"}
        assert replayed == {"a", "b"}
        assert float(outputs["d"].arrays["x"][0]) == 112.0

    def test_corrupt_root_re_executes_everything(self, tmp_path):
        graph = TaskGraph("g")
        diamond(graph)
        disk_scheduler(tmp_path).run(graph)
        (tmp_path / f"{graph.output_key('a')}.art").write_bytes(b"junk")
        _, ran, replayed = run_resumed(tmp_path, diamond)
        assert ran == {"a", "b", "c", "d"}
        assert replayed == set()

    def test_failed_node_resumes_after_fix(self, tmp_path):
        """A mid-run node exception publishes nothing for that node; a
        rerun with the bug fixed restores the survivors and finishes."""

        def build_broken(graph):
            add_value_node(graph, "a", kind="dataset")
            add_value_node(graph, "good", deps=("a",), value=5.0)

            def boom(ctx):
                raise RuntimeError("flaky")

            graph.add(
                TaskNode(name="bad", kind="score", run=boom, inputs=("a",),
                         key_parts=("fixable",))
            )

        def build_fixed(graph):
            add_value_node(graph, "a", kind="dataset")
            add_value_node(graph, "good", deps=("a",), value=5.0)

            def ok(ctx):
                return {"x": np.array([2.0 + float(ctx.array("a", "x")[0])])}

            graph.add(
                TaskNode(name="bad", kind="score", run=ok, inputs=("a",),
                         key_parts=("fixable",))
            )

        broken = TaskGraph("g")
        build_broken(broken)
        with pytest.raises(Exception, match="flaky"):
            disk_scheduler(tmp_path).run(broken)
        outputs, ran, replayed = run_resumed(tmp_path, build_fixed)
        assert replayed == {"a", "good"}
        assert ran == {"bad"}
        assert float(outputs["bad"].arrays["x"][0]) == 3.0

    def test_resumed_output_is_byte_identical(self, tmp_path):
        """Interrupted-then-resumed equals uninterrupted, byte for byte."""
        reference_dir = tmp_path / "ref"
        resumed_dir = tmp_path / "res"
        everything = ("a", "b", "c", "d")
        ref_graph = TaskGraph("g")
        diamond(ref_graph)
        reference = disk_scheduler(reference_dir).run(
            ref_graph, targets=everything
        )
        partial = TaskGraph("g")
        diamond(partial)
        disk_scheduler(resumed_dir).run(partial, targets=("c",))
        resumed_graph = TaskGraph("g")
        diamond(resumed_graph)
        resumed = disk_scheduler(resumed_dir).run(
            resumed_graph, targets=everything
        )
        for name in everything:
            assert (
                reference[name].arrays["x"].tobytes()
                == resumed[name].arrays["x"].tobytes()
            )


def linear_chain_strategy():
    """Small random layered DAGs: node i may depend on any subset of
    earlier nodes."""
    return st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.sets(st.integers(min_value=0, max_value=n - 2), max_size=3)
                if n > 1 else st.just(set()),
                min_size=n, max_size=n,
            ),
            st.sets(st.integers(min_value=0, max_value=n - 1)),
        )
    )


class TestRecoveryProperties:
    @settings(max_examples=25, deadline=None)
    @given(spec=linear_chain_strategy())
    def test_survey_matches_recursive_doneness_rule(self, spec):
        """For any DAG and any set of lost artifacts, the survey marks
        done exactly the nodes whose artifact survives and whose
        ancestors are all done — and a rerun executes the complement."""
        n, raw_deps, lost_indexes = spec

        def build(graph):
            for i in range(n):
                deps = tuple(f"n{d}" for d in sorted(raw_deps[i]) if d < i)
                add_value_node(graph, f"n{i}", deps=deps, value=float(i))

        with tempfile.TemporaryDirectory() as directory:
            graph = TaskGraph("g")
            build(graph)
            disk_scheduler(directory).run(graph)
            lost = {f"n{i}" for i in lost_indexes}
            for name in lost:
                (Path(directory) / f"{graph.output_key(name)}.art").unlink()

            expected_done = {}
            for name in graph.topo_order():
                expected_done[name] = name not in lost and all(
                    expected_done[dep] for dep in graph.node(name).inputs
                )
            expected = {name for name, ok in expected_done.items() if ok}

            survey = disk_scheduler(directory).survey(graph)
            assert survey.done == expected

            _, ran, replayed = run_resumed(directory, build)
            assert ran == set(graph.topo_order()) - expected
            assert replayed == expected
