"""Tests for the ``repro cache`` subcommand (stats / clear)."""

import json

import numpy as np
import pytest

from repro.cache import ArtifactCache, CachedArtifact
from repro.cache.cli import main as cache_main
from repro.cli import main as repro_main


def _populate(directory, n=2):
    cache = ArtifactCache(directory=directory)
    for i in range(n):
        cache.put(
            f"key-{i}",
            CachedArtifact.build({"data": np.full(64, i, dtype=np.uint64)}),
        )
    return cache.stats().disk_bytes


class TestStats:
    def test_reports_entries_and_bytes(self, tmp_path, capsys):
        disk_bytes = _populate(tmp_path, n=2)
        assert cache_main(["stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "2" in out
        assert str(disk_bytes) in out

    def test_json_output_is_parseable(self, tmp_path, capsys):
        disk_bytes = _populate(tmp_path, n=3)
        assert cache_main(["stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "directory": str(tmp_path),
            "n_disk_entries": 3,
            "disk_bytes": disk_bytes,
            "kinds": {"other": {"entries": 3, "bytes": doc["kinds"]["other"]["bytes"]}},
        }
        assert doc["kinds"]["other"]["bytes"] > 0

    def test_missing_directory_reads_as_empty(self, tmp_path, capsys):
        target = tmp_path / "never-created"
        assert cache_main(["stats", "--cache-dir", str(target), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_disk_entries"] == 0
        assert doc["disk_bytes"] == 0


class TestClear:
    def test_clears_and_reports_counts(self, tmp_path, capsys):
        _populate(tmp_path, n=2)
        assert cache_main(["clear", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cleared 2 entries" in out
        assert ArtifactCache(directory=tmp_path).stats().n_disk_entries == 0

    def test_singular_grammar(self, tmp_path, capsys):
        _populate(tmp_path, n=1)
        assert cache_main(["clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 1 entry " in capsys.readouterr().out

    def test_removes_old_layout_and_stale_temp_files(self, tmp_path, capsys):
        """``<key>.npz``/``<key>.json`` pairs of the earlier layout and
        temp files of killed writers are not entries, but ``clear``
        removes them."""
        _populate(tmp_path, n=2)
        key = "0123456789abcdef" * 4
        for stale in (f"{key}.npz", f"{key}.json", "k.art.tmp-9-dead"):
            (tmp_path / stale).write_bytes(b"stale")
        assert cache_main(["stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_disk_entries"] == 2
        assert cache_main(["clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_leaves_files_it_did_not_write(self, tmp_path, capsys):
        """Only store files go: a results file, notes, and an ``.art``
        file without the entry magic all survive ``clear``."""
        _populate(tmp_path, n=2)
        keep = {
            "results.json": b'{"psi": 0.1}',
            "notes.txt": b"notes",
            "x.art": b"not an entry",
            "short.art": b"",
        }
        for name, data in keep.items():
            (tmp_path / name).write_bytes(data)
        assert cache_main(["clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == keep

    def test_missing_directory_is_one_line_exit_2(self, tmp_path, capsys):
        target = tmp_path / "never-created"
        assert cache_main(["clear", "--cache-dir", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert str(target) in lines[0]


class TestDispatch:
    def test_repro_cache_routes_to_subcommand(self, tmp_path, capsys):
        _populate(tmp_path, n=1)
        assert repro_main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "disk entries:    1" in capsys.readouterr().out

    def test_unknown_action_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cache_main(["defrag", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2


class TestKindBreakdown:
    def test_dag_store_breaks_down_by_node_kind(self, tmp_path, capsys):
        cache = ArtifactCache(directory=tmp_path)
        cache.put(
            "d1",
            CachedArtifact.build(
                {"x": np.zeros(32)}, {"node_kind": "dataset"}
            ),
        )
        cache.put(
            "s1",
            CachedArtifact.build({"x": np.zeros(4)}, {"node_kind": "score"}),
        )
        assert cache_main(["stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "by node kind:" in out
        assert "dataset" in out and "score" in out

    def test_json_kinds_after_dag_run(self, tmp_path, capsys):
        from repro.dag import DagScheduler, TaskGraph, TaskNode

        graph = TaskGraph("g")
        graph.add(
            TaskNode(
                name="d", kind="dataset",
                run=lambda ctx: {"x": np.zeros(8)}, key_parts=("d",),
            )
        )
        DagScheduler(cache=ArtifactCache(directory=tmp_path)).run(graph)
        assert cache_main(["stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kinds"]["dataset"]["entries"] == 1
