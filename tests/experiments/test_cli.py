"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import _QUICK_OVERRIDES, main
from repro.experiments.registry import REGISTRY


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "ablate-layout" in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_quick_fig2(self, capsys):
        assert main(["fig2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "Gamma0" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["fig3", "--quick", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data[0]["experiment_id"] == "fig3"
        assert data[0]["series"]

    def test_quick_ablations(self, capsys):
        assert main(["ablate-windows", "--quick"]) == 0
        assert "full" in capsys.readouterr().out

    def test_selective_strategy_arm(self, tmp_path, capsys):
        """`repro fig2 --quick --strategy selective` adds the selective
        arm's column to the emitted table."""
        path = tmp_path / "fig2.json"
        argv = ["fig2", "--quick", "--strategy", "selective", "--json", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        labels = [s["label"] for s in json.loads(path.read_text())[0]["series"]]
        assert "Algo_NGST selective L=50" in labels


class TestAllQuickOverrides:
    """Every registered experiment must run under --quick."""

    import pytest as _pytest

    from repro.experiments.registry import REGISTRY as _REGISTRY

    @_pytest.mark.parametrize("experiment_id", sorted(_REGISTRY))
    def test_quick_run(self, experiment_id, capsys):
        assert main([experiment_id, "--quick"]) == 0
        out = capsys.readouterr().out
        assert experiment_id.split("-")[0] in out or experiment_id in out

    def test_overrides_cover_exactly_the_registry(self):
        """A new experiment must ship a --quick override, and overrides
        must not outlive the experiments they tune."""
        assert set(_QUICK_OVERRIDES) == set(REGISTRY)


class TestRuntimeFlags:
    def test_rejects_nonpositive_jobs(self, capsys):
        assert main(["fig2", "--quick", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_output_byte_identical_to_serial(self, tmp_path, capsys):
        """`repro fig2 --quick` must produce byte-identical JSON at any
        worker count — the determinism contract of the runtime."""
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["fig2", "--quick", "--jobs", "1", "--json", str(serial_path)]) == 0
        assert (
            main(["fig2", "--quick", "--jobs", "4", "--json", str(parallel_path)]) == 0
        )
        capsys.readouterr()
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_parallel_pool_output_byte_identical(self, tmp_path, capsys):
        """fig5 is one coarse graph node, so --jobs 2 keeps it on the
        serial path; the output must not depend on the flag either way."""
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["fig5", "--quick", "--json", str(serial_path)]) == 0
        assert (
            main(["fig5", "--quick", "--jobs", "2", "--json", str(parallel_path)]) == 0
        )
        capsys.readouterr()
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_progress_prints_telemetry_to_stderr(self, tmp_path, capsys):
        assert main(["fig5", "--quick", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[report] node 1/2 fig5/experiment (experiment) in" in captured.err
        assert "[report] done: 2 node(s)" in captured.err
        assert "[report]" not in captured.out


class TestAliasOfReport:
    """`repro <id>` is `repro report --only <id>` over an in-memory store."""

    @pytest.mark.parametrize(
        "experiment_id, extra",
        [("fig2", ["--strategy", "selective"]), ("fig5", [])],
    )
    def test_panels_decode_equal(self, experiment_id, extra, tmp_path, capsys):
        alias = tmp_path / "alias.json"
        report = tmp_path / "report.json"
        assert main([experiment_id, "--quick", *extra, "--json", str(alias)]) == 0
        argv = [
            "report", "--quick", "--only", experiment_id, *extra,
            "--cache-dir", str(tmp_path / "store"), "--json", str(report),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert json.loads(alias.read_text()) == json.loads(report.read_text())

    def test_keeps_no_store_without_cache_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fig5", "--quick"]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_persists_the_graph_artifacts(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["fig5", "--quick", "--cache-dir", str(store)]) == 0
        capsys.readouterr()
        assert any(store.iterdir())


def _message_lines(stderr: str) -> list[str]:
    """stderr without argparse's (possibly wrapped) usage block."""
    lines = stderr.splitlines()
    if lines and lines[0].startswith("usage:"):
        lines = lines[1:]
        while lines and lines[0].startswith(" "):
            lines = lines[1:]
    return lines


class TestRefusedInvocations:
    """Removed commands and flags, and combinations a backend cannot
    honour, fail fast: exit 2, one stderr line, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["worker"],
            ["report", "--backend", "cluster"],
            ["fig2", "--workers", "127.0.0.1:1"],
            # repro stream has no --backend or --policy: its pipeline runs
            # in-process, and only a serve tenant's ingest buffer takes a
            # backpressure policy.
            ["stream", "--backend", "process"],
            ["stream", "--policy", "block"],
            ["report", "--quick", "--only", "fig2", "--backend", "serial",
             "--threads", "4"],
            # Per-experiment checkpoints are gone; the report graph
            # (`repro report --only fig5 --resume`) is the one resume.
            ["fig5", "--resume"],
            ["fig5", "--checkpoint-dir", "d"],
            # `repro report` is the one run over every experiment; the
            # thread backend and the --backend spelling of --jobs are gone.
            ["all", "--quick"],
            ["fig2", "--threads", "2"],
            ["report", "--threads", "2"],
            ["fig2", "--backend", "process"],
            # Only fig2 and fig4 take strategy arms.
            ["fig5", "--strategy", "selective"],
            ["report", "--quick", "--only", "fig5", "--strategy", "selective"],
            # The adaptive strategy and its stream knobs are retired.
            ["fig2", "--strategy", "adaptive"],
            ["stream", "--coherence-beta", "0"],
            # --gamma 0 is the one way to skip injection.
            ["stream", "--no-inject"],
        ],
    )
    def test_exits_2_with_one_line(self, argv, tmp_path):
        _refused_message(argv, tmp_path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "--frames", "8", "--json", "absent/x.json"],
            ["fig5", "--quick", "--json", "absent/x.json"],
            ["report", "--quick", "--only", "fig5", "--json", "absent/x.json"],
            ["report", "--quick", "--only", "fig5", "--out", "absent/x.md"],
            ["report", "--from-json", "p.json", "--out", "absent/x.md"],
        ],
    )
    def test_missing_output_directory_names_the_flag(self, argv, tmp_path):
        # Refused before anything runs, and nothing is created.
        flag = argv[-2]
        message = _refused_message(argv, tmp_path)
        assert message == f"{flag} {argv[-1]}: no such directory absent"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig8", "--quick", "--cache-dir", "/dev/null/store"],
            ["report", "--quick", "--only", "fig8", "--cache-dir", "/dev/null/store"],
        ],
    )
    def test_unwritable_cache_dir_names_the_flag(self, argv, tmp_path):
        assert _refused_message(argv, tmp_path).startswith(
            "--cache-dir /dev/null/store is not writable"
        )

    def test_serve_refuses_zero_jobs(self, tmp_path):
        message = _refused_message(["serve", "--jobs", "0"], tmp_path)
        assert message == "repro-serve: jobs must be >= 1, got 0"
        assert list(tmp_path.iterdir()) == []


def _refused_message(argv: list[str], cwd) -> str:
    """Run the real CLI on *argv*; assert a clean refusal and return its
    one stderr message line."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = _message_lines(proc.stderr)
    assert len(lines) == 1, proc.stderr
    assert proc.stdout == ""
    return lines[0]
