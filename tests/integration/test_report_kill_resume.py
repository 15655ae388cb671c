"""End-to-end kill/resume for the single-DAG `repro report` run.

The acceptance contract for the orchestrator: a report run hard-killed
at an arbitrary point and restarted with ``--resume`` produces
byte-identical output to an uninterrupted run, with completed nodes
detected purely from the filesystem.  Each case below runs the report
in a child process whose telemetry hook ``os._exit``s the interpreter
after K node completions — a hard kill with no cleanup, no atexit, no
cache flush — then resumes through the real CLI and compares bytes.
"""

import json
import os
import subprocess
import sys

import pytest

#: Report subset used throughout: fig2 expands fine-grained (26 nodes
#: under --quick) and motivation is a coarse experiment node, so kills
#: land both mid-figure and around whole-experiment boundaries.
EXPERIMENTS = "fig2,motivation"

_KILLER = """\
import os, sys
from repro.cache import ArtifactCache
from repro.dag.report import PANELS_NODE, build_report_graph
from repro.dag.scheduler import DagScheduler
from repro.runtime import Telemetry
from repro.runtime.telemetry import NodeCompleted

kill_after, cache_dir = int(sys.argv[1]), sys.argv[2]
seen = 0

def killer(event):
    global seen
    if isinstance(event, NodeCompleted):
        seen += 1
        if seen >= kill_after:
            os._exit(137)  # hard kill: no cleanup, no flush

telemetry = Telemetry()
telemetry.subscribe(killer)
graph = build_report_graph(sys.argv[3].split(","), quick=True)
DagScheduler(
    cache=ArtifactCache(directory=cache_dir), telemetry=telemetry
).run(graph, targets=(PANELS_NODE,), recover=True)
"""


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def _run_report(cache_dir, json_path, out_path, resume=False):
    argv = [
        sys.executable, "-m", "repro.cli", "report",
        "--quick", "--only", EXPERIMENTS,
        "--cache-dir", str(cache_dir),
        "--json", str(json_path), "--out", str(out_path),
    ]
    if resume:
        argv.append("--resume")
    return subprocess.run(
        argv, env=_env(), capture_output=True, text=True, timeout=600
    )


def _kill_at(kill_after, cache_dir):
    proc = subprocess.run(
        [sys.executable, "-c", _KILLER, str(kill_after), str(cache_dir), EXPERIMENTS],
        env=_env(), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 137, proc.stderr
    return proc


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted report run: the byte-level ground truth."""
    root = tmp_path_factory.mktemp("report-reference")
    json_path, out_path = root / "panels.json", root / "report.md"
    proc = _run_report(root / "cache", json_path, out_path)
    assert proc.returncode == 0, proc.stderr
    return json_path.read_bytes(), out_path.read_bytes()


@pytest.mark.parametrize("kill_after", [2, 10, 24])
def test_killed_run_resumes_byte_identical(tmp_path, reference, kill_after):
    cache_dir = tmp_path / "cache"
    _kill_at(kill_after, cache_dir)
    # The kill left a partial store behind — some nodes, not all.
    published = list(cache_dir.glob("*.art"))
    assert published, "killed run should have published completed nodes"

    json_path, out_path = tmp_path / "panels.json", tmp_path / "report.md"
    proc = _run_report(cache_dir, json_path, out_path, resume=True)
    assert proc.returncode == 0, proc.stderr
    ref_json, ref_md = reference
    assert json_path.read_bytes() == ref_json
    assert out_path.read_bytes() == ref_md


def test_resume_restores_instead_of_recomputing(tmp_path, reference):
    """After the kill, the completed frontier is detected purely from
    the filesystem: the resumed run restores those nodes from the store."""
    cache_dir = tmp_path / "cache"
    _kill_at(10, cache_dir)
    argv = [
        sys.executable, "-m", "repro.cli", "report",
        "--quick", "--only", EXPERIMENTS, "--resume", "--progress",
        "--cache-dir", str(cache_dir),
    ]
    proc = subprocess.run(
        argv, env=_env(), capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert "restored from store" in proc.stderr
    start_line = [l for l in proc.stderr.splitlines() if "start:" in l][0]
    # ≥10 nodes completed before the kill; all must come back restored.
    restored = int(start_line.split("restored")[0].rsplit(",", 1)[1].split()[0])
    assert restored >= 10


def test_plan_reports_temperature_after_kill(tmp_path):
    cache_dir = tmp_path / "cache"
    _kill_at(5, cache_dir)
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "report", "--plan",
            "--quick", "--only", EXPERIMENTS, "--cache-dir", str(cache_dir),
        ],
        env=_env(), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    header = proc.stdout.splitlines()[0]
    assert "pending" in header and "temperature" in header
    assert "0 done" not in header


def _panels(blob):
    return json.loads(blob.decode())


def test_reference_panels_match_direct_experiment_run(reference):
    """The DAG-produced panels decode to the same values as running each
    experiment directly — so ``repro report --only <id>`` (resumable)
    stands in for ``repro <id>``.  Values, not bytes: the report stores
    canonical JSON (sorted keys, ``49152.0`` for ``49152``)."""
    from repro.dag.report import quick_overrides
    from repro.experiments.registry import run_experiment

    panels = _panels(reference[0])
    assert [p["experiment_id"] for p in panels] == ["fig2", "motivation"]
    direct = [
        result.to_dict()
        for experiment_id in EXPERIMENTS.split(",")
        for result in run_experiment(experiment_id, **quick_overrides(experiment_id))
    ]
    assert panels == json.loads(json.dumps(direct))
