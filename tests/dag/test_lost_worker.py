"""A pool worker lost mid-node ends the run with a typed error, not a hang.

Each death runs in a child interpreter under a timeout, so a regression
that waits forever fails here instead of stalling the suite.  The child
runs a graph whose middle wave holds four nodes on two workers; one of
them kills its own worker.  A recovering rerun on the same store must
then publish the rest of the graph, equal to an uninterrupted run.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cache import ArtifactCache
from repro.dag import DagScheduler, TaskGraph, TaskNode
from repro.runtime import ProcessPoolBackend, Telemetry
from repro.runtime.telemetry import DagStarted

ROOT = Path(__file__).resolve().parents[2]
WAVE = ("b", "c", "doomed", "e")

_CHILD = """
import sys
from repro.cache import ArtifactCache
from repro.dag import DagScheduler
from repro.exceptions import DagError
from repro.runtime import ProcessPoolBackend
from tests.dag.test_lost_worker import build_graph

death, store = sys.argv[1], sys.argv[2]
scheduler = DagScheduler(
    cache=ArtifactCache(directory=store), backend=ProcessPoolBackend(2)
)
try:
    scheduler.run(build_graph(death))
except DagError as exc:
    print(exc)
    sys.exit(2)
"""


def _die(death):
    if death == "exit":
        os._exit(1)
    os.kill(os.getpid(), signal.SIGKILL)


def build_graph(death=None):
    """``a`` → {b, c, doomed, e} → ``sink``; *death* makes ``doomed``
    end its own process (``"exit"`` or ``"kill"``).  The keys do not
    depend on *death*, so the healthy graph resumes the dying one's
    store."""
    graph = TaskGraph("lost-worker")

    def node(name, deps, value):
        def run(ctx):
            if name == "doomed" and death is not None:
                _die(death)
            total = value + sum(float(ctx.array(d, "x")[0]) for d in deps)
            return {"x": np.array([total])}

        graph.add(
            TaskNode(
                name=name, kind="score", run=run, inputs=deps,
                key_parts=("lost-worker", name, value),
            )
        )

    node("a", (), 1.0)
    for offset, name in enumerate(WAVE):
        node(name, ("a",), 10.0 ** (offset + 1))
    node("sink", WAVE, 0.0)
    return graph


def _run_dying_child(death, store):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(Path(repro.__file__).resolve().parents[1])]
    )
    return subprocess.run(
        [sys.executable, "-c", _CHILD, death, str(store)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_lost_worker_is_one_line_dag_error_and_resume_finishes(tmp_path, death):
    store = tmp_path / "store"
    proc = _run_dying_child(death, store)
    assert proc.returncode == 2, proc.stderr
    message = proc.stdout.rstrip("\n")
    assert "\n" not in message
    assert "worker process died" in message
    assert "--resume" in message
    named = set(message.split("unpublished node(s) in graph 'lost-worker': ")[1]
                .split(";")[0].split(", "))
    assert "doomed" in named and named <= set(WAVE)

    published = DagScheduler(cache=ArtifactCache(directory=store)).survey(
        build_graph()
    ).done
    assert "a" in published
    assert not named & published
    assert set(WAVE) <= named | published

    telemetry = Telemetry()
    events = []
    telemetry.subscribe(events.append)
    resumed = DagScheduler(
        cache=ArtifactCache(directory=store),
        backend=ProcessPoolBackend(2),
        telemetry=telemetry,
    ).run(build_graph())
    started = next(e for e in events if isinstance(e, DagStarted))
    assert started.n_restored == len(published)
    clean = DagScheduler().run(build_graph())
    assert resumed["sink"].arrays["x"].tobytes() == clean["sink"].arrays["x"].tobytes()
